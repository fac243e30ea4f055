// Package trace provides a low-overhead, fixed-capacity event ring for
// observing allocator behaviour: cache refills and flushes, slab grows,
// shrinks and pre-movements, latent merges and grace-period waits. The
// benchmark CLI can attach a ring to a cache and dump the trailing
// events, which is how the churn patterns of §3 were inspected during
// development.
//
// Recording is wait-free (one atomic increment plus a slot write) and
// vCPU-local: each vCPU records into its own shard, so tracing adds no
// shared cache line to the allocator's slow paths. Each shard
// overwrites its oldest entries when full; Snapshot merges the shards
// by timestamp. Events carry a wall-clock timestamp, the CPU, and two
// free-form arguments whose meaning depends on the kind.
package trace

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"time"
)

// Kind identifies an event type.
type Kind uint8

// Event kinds.
const (
	KindNone     Kind = iota
	KindMalloc        // arg1 = object index, arg2 = 1 for cache hit
	KindFree          // arg1 = object index
	KindDefer         // arg1 = object index, arg2 = grace-period cookie
	KindRefill        // arg1 = objects moved, arg2 = 1 when partial
	KindFlush         // arg1 = objects moved
	KindGrow          // arg1 = slabs added
	KindShrink        // arg1 = slabs returned
	KindPreMove       // arg1 = destination list id
	KindPreFlush      // arg1 = objects moved to latent slabs
	KindMerge         // arg1 = objects merged from latent cache
	KindGPWait        // allocation waited for a grace period
	KindOOM           // allocation failed with out-of-memory
)

var kindNames = [...]string{
	KindNone:     "none",
	KindMalloc:   "malloc",
	KindFree:     "free",
	KindDefer:    "defer",
	KindRefill:   "refill",
	KindFlush:    "flush",
	KindGrow:     "grow",
	KindShrink:   "shrink",
	KindPreMove:  "premove",
	KindPreFlush: "preflush",
	KindMerge:    "merge",
	KindGPWait:   "gpwait",
	KindOOM:      "oom",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one recorded occurrence.
type Event struct {
	At   time.Time
	Kind Kind
	CPU  int32
	Arg1 int64
	Arg2 int64
}

// String renders the event compactly.
func (e Event) String() string {
	return fmt.Sprintf("%s cpu%d %s arg1=%d arg2=%d",
		e.At.Format("15:04:05.000000"), e.CPU, e.Kind, e.Arg1, e.Arg2)
}

// ringShards is the number of per-vCPU shards in a Ring. vCPU c
// records into shard c mod ringShards, so up to ringShards vCPUs never
// share a shard's counter.
const ringShards = 64

// Ring is a fixed-capacity overwrite-on-full event buffer, safe for
// concurrent recording from any goroutine. It is sharded by vCPU: a
// shard's slots are allocated on its first event, and every shard
// holds up to Cap events, so a single busy vCPU still fills the whole
// window.
type Ring struct {
	shards [ringShards]ringShard
	size   int
	mask   uint64
}

// ringShard is one vCPU's share of a Ring, padded so neighbouring
// vCPUs' counters do not false-share.
//
//prudence:padded 128
type ringShard struct {
	next  atomic.Uint64
	slots atomic.Pointer[[]slot]
	_     [128 - 16]byte
}

type slot struct {
	seq atomic.Uint64 // odd while being written; event valid when even and non-zero
	ev  Event
}

// NewRing creates a ring holding up to capacity events, rounded up to a
// power of two (minimum 16).
func NewRing(capacity int) *Ring {
	n := 16
	for n < capacity {
		n <<= 1
	}
	return &Ring{size: n, mask: uint64(n - 1)}
}

// Cap returns the ring's capacity.
func (r *Ring) Cap() int { return r.size }

// Record appends an event to cpu's shard, overwriting the shard's
// oldest event when full.
func (r *Ring) Record(kind Kind, cpu int, arg1, arg2 int64) {
	sh := &r.shards[uint(cpu)%ringShards]
	slots := sh.slots.Load()
	if slots == nil {
		fresh := make([]slot, r.size)
		sh.slots.CompareAndSwap(nil, &fresh) // a racing first event may win
		slots = sh.slots.Load()
	}
	idx := sh.next.Add(1) - 1
	s := &(*slots)[idx&r.mask]
	// Seqlock-style: odd marks the slot as mid-write so Snapshot can
	// discard torn reads.
	s.seq.Add(1) // odd
	s.ev = Event{At: time.Now(), Kind: kind, CPU: int32(cpu), Arg1: arg1, Arg2: arg2}
	s.seq.Add(1) // even
}

// Len returns how many events have ever been recorded (not the number
// retained).
func (r *Ring) Len() int {
	n := uint64(0)
	for i := range r.shards {
		n += r.shards[i].next.Load()
	}
	return int(n)
}

// Snapshot returns the newest Cap retained events across all shards,
// oldest first. Events being written concurrently are skipped.
func (r *Ring) Snapshot() []Event {
	var out []Event
	for i := range r.shards {
		sh := &r.shards[i]
		slots := sh.slots.Load()
		if slots == nil {
			continue
		}
		total := sh.next.Load()
		start := uint64(0)
		if total > uint64(r.size) {
			start = total - uint64(r.size)
		}
		for j := start; j < total; j++ {
			s := &(*slots)[j&r.mask]
			before := s.seq.Load()
			if before%2 != 0 {
				continue // mid-write
			}
			ev := s.ev
			if s.seq.Load() != before {
				continue // overwritten while reading
			}
			if ev.Kind == KindNone {
				continue
			}
			out = append(out, ev)
		}
	}
	// Each shard is already in recording order; the stable sort keeps
	// it for events with equal timestamps.
	slices.SortStableFunc(out, func(a, b Event) int { return a.At.Compare(b.At) })
	if len(out) > r.size {
		out = out[len(out)-r.size:]
	}
	return out
}

// CountByKind tallies the retained events.
func (r *Ring) CountByKind() map[Kind]int {
	out := map[Kind]int{}
	for _, e := range r.Snapshot() {
		out[e.Kind]++
	}
	return out
}

// Dump renders the trailing max events, oldest first.
func (r *Ring) Dump(max int) string {
	evs := r.Snapshot()
	if max > 0 && len(evs) > max {
		evs = evs[len(evs)-max:]
	}
	var b strings.Builder
	for _, e := range evs {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
