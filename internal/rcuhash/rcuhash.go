// Package rcuhash implements an RCU-protected hash table — the kind of
// read-mostly structure (route caches, dentry-like lookup tables) the
// paper's introduction motivates as the major user of synchronization
// via procrastination.
//
// The table is an inline array of buckets. Each bucket holds a writer
// lock and an RCU-published pointer to an immutable chain version: a
// contiguous array of keys beside the matching slab payload references.
// A reader hashes to a bucket, loads its chain once and scans the keys
// in place, all inside one read-side critical section. A writer, under
// the bucket lock, builds the bucket's next chain version in one Go
// allocation, publishes it, and defer-frees the payload it replaced —
// the paper's Figure 1 pattern of one slab allocation and one deferred
// free per update. Chain versions themselves are garbage-collected, so
// a reader still scanning a replaced version stays safe; only the slab
// payloads need grace-period protection.
//
// Resizing swaps in a new bucket array and rebuilds it with copy-update
// operations, defer-freeing every old payload — a deliberate burst of
// deferred frees akin to the table moves of resizable RCU hash tables.
package rcuhash

import (
	"sync"
	"sync/atomic"

	"prudence/internal/alloc"
	"prudence/internal/slabcore"
)

// Sync is the synchronization surface the map needs: read-side markers
// plus a blocking grace-period wait for the resize teardown.
type Sync interface {
	ReadLock(cpu int)
	ReadUnlock(cpu int)
	// SynchronizeOn blocks until a full grace period has elapsed,
	// treating the calling CPU as quiescent.
	SynchronizeOn(cpu int)
}

// Map is an RCU-protected hash map from uint64 keys to fixed-size
// values.
type Map struct {
	cache alloc.Cache
	rcu   Sync

	table atomic.Pointer[table] //prudence:rcu resizeMu
	// resizeMu serializes resizes; normal writers only take bucket
	// locks. It ranks below them (bucket.mu, rank 8) because Resize
	// takes bucket locks while holding it.
	//
	//prudence:lockorder 7
	resizeMu sync.Mutex
}

type table struct {
	buckets []bucket
	mask    uint64
}

// bucket is one hash chain: a writer lock and the current version.
type bucket struct {
	// mu serializes the bucket's writers. It is never held while
	// calling into the allocator.
	//
	//prudence:lockorder 8
	mu    sync.Mutex
	chain atomic.Pointer[chain] //prudence:rcu mu
}

// chain is one immutable version of a bucket's contents: keys[i] maps
// to the payload objs[i]. A bucket with no entries publishes nil.
type chain struct {
	keys []uint64
	objs []slabcore.Ref
}

// newChain returns an empty-valued chain of n entries. Chains up to 16
// entries come from fixed size classes, so the header and both arrays
// are one Go allocation; longer chains take three. Every write copies
// its bucket's whole chain, so the map is meant to run near 4–6 entries
// per bucket: perfbench's 100 k sessions over 16 k buckets average 6.1,
// and the server sizes its table from its session target to stay near
// 4 (a million sessions over 256 k buckets average 3.8).
func newChain(n int) *chain {
	switch {
	case n == 0:
		return nil
	case n <= 4:
		v := new(struct {
			chain
			k [4]uint64
			o [4]slabcore.Ref
		})
		v.keys, v.objs = v.k[:n], v.o[:n]
		return &v.chain
	case n <= 8:
		v := new(struct {
			chain
			k [8]uint64
			o [8]slabcore.Ref
		})
		v.keys, v.objs = v.k[:n], v.o[:n]
		return &v.chain
	case n <= 16:
		v := new(struct {
			chain
			k [16]uint64
			o [16]slabcore.Ref
		})
		v.keys, v.objs = v.k[:n], v.o[:n]
		return &v.chain
	}
	return &chain{keys: make([]uint64, n), objs: make([]slabcore.Ref, n)}
}

// find returns key's index in c, or -1. c may be nil.
func (c *chain) find(key uint64) int {
	if c != nil {
		for i, k := range c.keys {
			if k == key {
				return i
			}
		}
	}
	return -1
}

func (c *chain) len() int {
	if c == nil {
		return 0
	}
	return len(c.keys)
}

// replaced returns a copy of c with entry i's payload set to obj.
func (c *chain) replaced(i int, obj slabcore.Ref) *chain {
	nc := newChain(len(c.keys))
	copy(nc.keys, c.keys)
	copy(nc.objs, c.objs)
	nc.objs[i] = obj
	return nc
}

// appended returns a copy of c (which may be nil) with one more entry.
func (c *chain) appended(key uint64, obj slabcore.Ref) *chain {
	n := c.len()
	nc := newChain(n + 1)
	if c != nil {
		copy(nc.keys, c.keys)
		copy(nc.objs, c.objs)
	}
	nc.keys[n], nc.objs[n] = key, obj
	return nc
}

// removed returns a copy of c without entry i (nil when none remain).
func (c *chain) removed(i int) *chain {
	nc := newChain(len(c.keys) - 1)
	if nc != nil {
		copy(nc.keys, c.keys[:i])
		copy(nc.keys[i:], c.keys[i+1:])
		copy(nc.objs, c.objs[:i])
		copy(nc.objs[i:], c.objs[i+1:])
	}
	return nc
}

// New creates a map with the given power-of-two bucket count. r
// provides synchronization (internal/rcu or internal/ebr).
func New(cache alloc.Cache, r Sync, buckets int) *Map {
	checkBuckets(buckets)
	m := &Map{cache: cache, rcu: r}
	m.table.Store(newTable(buckets))
	return m
}

func checkBuckets(buckets int) {
	if buckets <= 0 || buckets&(buckets-1) != 0 {
		panic("rcuhash: bucket count must be a positive power of two")
	}
}

func newTable(buckets int) *table {
	return &table{buckets: make([]bucket, buckets), mask: uint64(buckets - 1)}
}

// hash mixes the key (splitmix64 finalizer) so sequential keys spread.
func hash(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

func (t *table) bucket(key uint64) *bucket {
	return &t.buckets[hash(key)&t.mask]
}

// ValueSize returns the payload capacity of each entry.
func (m *Map) ValueSize() int { return m.cache.ObjectSize() }

// loadTable reads the table pointer outside a read-side critical
// section. That is safe for the pointer itself — the table struct, its
// buckets and their chain versions are GC-backed, so an old table stays
// valid however late it is dereferenced; only payload slices need
// grace-period protection. Writer-path callers (Put, Delete, Len)
// additionally rely on the single-resizer rule: writers quiesce during
// a resize, so they can never load a table mid-swap. Read paths that
// DO return payload data (Get, ForEach) load the pointer inside their
// critical sections instead and are checked.
func (m *Map) loadTable() *table {
	return m.table.Load() //prudence:nolint:rcucheck the bare pointer load is safe: tables are GC-backed and writers quiesce during resize (see comment)
}

// Buckets returns the current bucket count.
func (m *Map) Buckets() int { return len(m.loadTable().buckets) }

// Len returns the number of entries (approximate under concurrency).
// It takes no locks: it reads only the length of each bucket's current
// chain version, which is immutable and GC-backed like the table.
func (m *Map) Len() int {
	t := m.loadTable()
	n := 0
	for i := range t.buckets {
		n += t.buckets[i].chain.Load().len() //prudence:nolint:rcucheck only the immutable version's length is read, never a payload
	}
	return n
}

// Get copies the value for key into buf inside a read-side critical
// section on cpu. Returns bytes copied and whether the key was present.
// It is GetMany's one-key call, so there is one read path.
func (m *Map) Get(cpu int, key uint64, buf []byte) (int, bool) {
	var n [1]int
	m.GetMany(cpu, []uint64{key}, [][]byte{buf}, n[:])
	if n[0] < 0 {
		return 0, false
	}
	return n[0], true
}

// MaxGetMany is the most keys one GetMany call takes.
const MaxGetMany = 16

// GetMany looks up every keys[j] in one read-side critical section on
// cpu. A present key's value is copied into bufs[j] and ns[j] set to
// the bytes copied; an absent key sets ns[j] to -1. keys holds at most
// MaxGetMany entries, and bufs and ns at least as many as keys.
//
// Each lookup is a chain of dependent cache misses: the bucket, its
// chain version, the payload's slab header, the payload. GetMany runs
// the lookups in stages, one stage for all keys before the next
// (group prefetching), so the misses of independent keys are in flight
// together instead of one after another. Go has no prefetch
// instruction, so two stages only touch memory: they fold what they
// load into the returned byte, which means nothing but keeps the
// compiler from dropping those loads. A caller should store it
// somewhere cheap. The touch stages are skipped for a single key,
// which has no other miss to overlap.
func (m *Map) GetMany(cpu int, keys []uint64, bufs [][]byte, ns []int) byte {
	if len(keys) > MaxGetMany {
		panic("rcuhash: GetMany takes at most MaxGetMany keys")
	}
	var (
		chains [MaxGetMany]*chain
		refs   [MaxGetMany]slabcore.Ref
		touch  uint64
	)
	staged := len(keys) > 1
	// The table pointer must be dereferenced inside the critical
	// section: a resize defer-frees the old table's payloads after a
	// grace period, so holding the read lock across load+lookup is what
	// makes the swap safe.
	m.rcu.ReadLock(cpu)
	defer m.rcu.ReadUnlock(cpu)
	t := m.table.Load()
	// Stage 1: every bucket's chain version.
	for j, k := range keys {
		chains[j] = t.bucket(k).chain.Load()
	}
	// Stage 2: the chains' keys.
	if staged {
		for _, c := range chains[:len(keys)] {
			if c != nil {
				touch += c.keys[0] + c.keys[len(c.keys)-1]
			}
		}
	}
	// Stage 3: each key's payload reference, if present.
	for j, k := range keys {
		if i := chains[j].find(k); i >= 0 {
			refs[j] = chains[j].objs[i]
		}
	}
	// Stage 4: the payloads' slab headers and both ends of each payload.
	if staged {
		for _, r := range refs[:len(keys)] {
			if !r.IsZero() {
				b := r.Bytes()
				touch += uint64(b[0]) + uint64(b[len(b)-1])
			}
		}
	}
	// Stage 5: the copies.
	for j, r := range refs[:len(keys)] {
		if r.IsZero() {
			ns[j] = -1
		} else {
			ns[j] = copy(bufs[j], r.Bytes())
		}
	}
	return byte(touch)
}

// Put inserts or replaces key's value. Either way the value goes into
// one fresh slab allocation; a replace then defer-frees the old payload
// (copy-update). The lookup and the publish happen under one bucket
// lock, so concurrent Puts of a new key insert it once.
func (m *Map) Put(cpu int, key uint64, value []byte) error {
	ref, err := m.cache.Malloc(cpu)
	if err != nil {
		return err
	}
	copy(ref.Bytes(), value)

	b := m.loadTable().bucket(key)
	b.mu.Lock()
	c := b.chain.Load()
	i := c.find(key)
	if i < 0 {
		b.chain.Store(c.appended(key, ref))
		b.mu.Unlock()
		return nil
	}
	old := c.objs[i]
	b.chain.Store(c.replaced(i, ref))
	b.mu.Unlock()

	// The old version is unreachable for new readers; its payload waits
	// for pre-existing readers through the deferred free.
	m.cache.FreeDeferred(cpu, old)
	return nil
}

// Delete removes key, defer-freeing its payload. Reports whether it was
// present.
func (m *Map) Delete(cpu int, key uint64) (bool, error) {
	b := m.loadTable().bucket(key)
	b.mu.Lock()
	c := b.chain.Load()
	i := c.find(key)
	if i < 0 {
		b.mu.Unlock()
		return false, nil
	}
	old := c.objs[i]
	b.chain.Store(c.removed(i))
	b.mu.Unlock()

	m.cache.FreeDeferred(cpu, old)
	return true, nil
}

// ForEach visits every entry inside one read-side critical section on
// cpu; entries added or removed during iteration may or may not be
// seen. fn must not retain value.
func (m *Map) ForEach(cpu int, fn func(key uint64, value []byte) bool) {
	m.rcu.ReadLock(cpu)
	defer m.rcu.ReadUnlock(cpu)
	t := m.table.Load()
	for i := range t.buckets {
		c := t.buckets[i].chain.Load()
		for j := 0; j < c.len(); j++ {
			if !fn(c.keys[j], c.objs[j].Bytes()) {
				return
			}
		}
	}
}

// Resize rebuilds the map with a new power-of-two bucket count. Every
// entry is copied into a fresh allocation in the new table and the old
// payload defer-freed, producing the deferred-free burst characteristic
// of RCU hash-table moves. Concurrent readers keep working against
// whichever table they loaded; concurrent writers are not supported
// during a resize (writer-side callers must quiesce, as with relativistic
// hash tables' single-resizer rule).
func (m *Map) Resize(cpu int, buckets int) error {
	checkBuckets(buckets)
	m.resizeMu.Lock()
	defer m.resizeMu.Unlock()

	// Phase 1: copy every payload into a fresh allocation. Readers
	// still use the old table and see a complete view throughout.
	old := m.table.Load()
	type move struct {
		key      uint64
		from, to slabcore.Ref
	}
	var moves []move
	for i := range old.buckets {
		b := &old.buckets[i]
		b.mu.Lock()
		c := b.chain.Load()
		for j := 0; j < c.len(); j++ {
			moves = append(moves, move{key: c.keys[j], from: c.objs[j]})
		}
		b.mu.Unlock()
	}
	for i := range moves {
		to, err := m.cache.Malloc(cpu)
		if err != nil {
			// Nothing is published yet: free the copies made so far.
			for _, done := range moves[:i] {
				m.cache.Free(cpu, done.to)
			}
			return err
		}
		copy(to.Bytes(), moves[i].from.Bytes())
		moves[i].to = to
	}

	// The new table is unpublished, but its chains are still built
	// under the bucket locks so the stores follow the publication
	// discipline.
	nt := newTable(buckets)
	for _, mv := range moves {
		b := nt.bucket(mv.key)
		b.mu.Lock()
		b.chain.Store(b.chain.Load().appended(mv.key, mv.to))
		b.mu.Unlock()
	}

	// Phase 2: publish the new table, wait for pre-existing readers of
	// the old table to finish, then defer-free its payloads. The
	// deferred free still covers any reader that captured a payload
	// slice just before the table swap.
	m.table.Store(nt)
	m.rcu.SynchronizeOn(cpu)
	for _, mv := range moves {
		m.cache.FreeDeferred(cpu, mv.from)
	}
	return nil
}
