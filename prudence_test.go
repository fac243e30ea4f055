package prudence_test

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"testing"

	"prudence"
)

func newSystem(t *testing.T, cfg prudence.Config) *prudence.System {
	t.Helper()
	sys, err := prudence.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys
}

func TestDefaultsAndKinds(t *testing.T) {
	sys := newSystem(t, prudence.Config{})
	if got := sys.AllocatorName(); got != "prudence" {
		t.Fatalf("default allocator = %q", got)
	}
	if sys.NumCPU() != 8 {
		t.Fatalf("default CPUs = %d", sys.NumCPU())
	}
	if sys.TotalBytes() != 16384*prudence.PageSize {
		t.Fatalf("default memory = %d", sys.TotalBytes())
	}
	slubSys := newSystem(t, prudence.Config{Allocator: prudence.SLUB, CPUs: 2})
	if got := slubSys.AllocatorName(); got != "slub" {
		t.Fatalf("slub system reports %q", got)
	}
	if _, err := prudence.New(prudence.Config{Allocator: prudence.AllocatorKind("bogus")}); err == nil {
		t.Fatal("bogus allocator kind accepted")
	}
	if _, err := prudence.New(prudence.Config{Reclamation: prudence.ReclamationKind("bogus")}); err == nil {
		t.Fatal("bogus reclamation kind accepted")
	}
	if _, err := prudence.New(prudence.Config{CPUs: -1}); err == nil {
		t.Fatal("negative CPU count accepted")
	}
	if _, err := prudence.New(prudence.Config{MemoryPages: -1}); err == nil {
		t.Fatal("negative arena size accepted")
	}
}

// MustNew panics on the same configurations New rejects with an error.
func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with invalid config did not panic")
		}
	}()
	prudence.MustNew(prudence.Config{Allocator: prudence.AllocatorKind("bogus")})
}

func TestCacheLifecycle(t *testing.T) {
	sys := newSystem(t, prudence.Config{CPUs: 2, MemoryPages: 512})
	c := sys.NewCache("objs", 128)
	if c.Name() != "objs" || c.ObjectSize() != 128 {
		t.Fatalf("cache identity: %q/%d", c.Name(), c.ObjectSize())
	}
	obj, err := c.Malloc(0)
	if err != nil {
		t.Fatal(err)
	}
	if obj.IsZero() || len(obj.Bytes()) != 128 {
		t.Fatal("bad object handle")
	}
	copy(obj.Bytes(), "payload")
	c.FreeDeferred(0, obj)
	sys.Synchronize()
	st := c.Stats()
	if st.Allocs != 1 || st.DeferredFrees != 1 {
		t.Fatalf("stats: %+v", st)
	}
	ft, allocated, requested := c.Fragmentation()
	if requested != 0 || allocated <= 0 || ft <= 0 {
		t.Fatalf("fragmentation: %v %d %d", ft, allocated, requested)
	}
	c.Drain()
	if sys.UsedBytes() != 0 {
		t.Fatalf("%d bytes in use after drain", sys.UsedBytes())
	}
}

func TestOOMSurface(t *testing.T) {
	// 4096 B objects live in order-3 (8-page) slabs: an 8-page arena
	// fits exactly one slab, so the second grow must fail.
	sys := newSystem(t, prudence.Config{CPUs: 1, MemoryPages: 8})
	c := sys.NewCache("big", 4096)
	var objs []prudence.Object
	for {
		o, err := c.Malloc(0)
		if err != nil {
			if !errors.Is(err, prudence.ErrOutOfMemory) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		objs = append(objs, o)
	}
	if len(objs) == 0 {
		t.Fatal("no allocations before OOM")
	}
	for _, o := range objs {
		c.Free(0, o)
	}
	c.Drain()
}

func TestRunOnAllCPUs(t *testing.T) {
	sys := newSystem(t, prudence.Config{CPUs: 4, MemoryPages: 1024})
	c := sys.NewCache("conc", 64)
	var total atomic.Int64
	sys.RunOnAllCPUs(func(cpu int) {
		for i := 0; i < 200; i++ {
			o, err := c.Malloc(cpu)
			if err != nil {
				t.Errorf("cpu %d: %v", cpu, err)
				return
			}
			c.FreeDeferred(cpu, o)
			sys.QuiescentState(cpu)
			total.Add(1)
		}
	})
	if total.Load() != 800 {
		t.Fatalf("completed %d ops", total.Load())
	}
	// Drain cannot return until the deferred frees' grace periods have
	// elapsed, so the counter check after it is race-free (checking right
	// after the loop raced with the engine's minimum GP interval).
	c.Drain()
	if sys.GracePeriods() == 0 {
		t.Fatal("no grace periods elapsed")
	}
}

func TestListFacade(t *testing.T) {
	sys := newSystem(t, prudence.Config{CPUs: 2, MemoryPages: 1024})
	c := sys.NewCache("list", 64)
	l := sys.NewList(c)
	for i := uint64(0); i < 10; i++ {
		if err := l.Insert(0, i, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if l.Len() != 10 {
		t.Fatalf("Len = %d", l.Len())
	}
	buf := make([]byte, 8)
	if _, ok := l.Lookup(0, 3, buf); !ok || string(buf[:2]) != "v3" {
		t.Fatalf("Lookup(3) = %q, %v", buf[:2], ok)
	}
	if ok, err := l.Update(0, 3, []byte("new")); err != nil || !ok {
		t.Fatalf("Update: %v %v", ok, err)
	}
	count := 0
	l.Walk(0, func(uint64, []byte) bool { count++; return true })
	if count != 10 {
		t.Fatalf("Walk visited %d", count)
	}
	for i := uint64(0); i < 10; i++ {
		if ok, err := l.Delete(0, i); err != nil || !ok {
			t.Fatalf("Delete(%d): %v %v", i, ok, err)
		}
	}
	c.Drain()
	if sys.UsedBytes() != 0 {
		t.Fatal("memory retained after list teardown")
	}
}

func TestMapFacade(t *testing.T) {
	sys := newSystem(t, prudence.Config{CPUs: 2, MemoryPages: 1024})
	c := sys.NewCache("map", 64)
	m := sys.NewMap(c, 8)
	for i := uint64(0); i < 50; i++ {
		if err := m.Put(0, i, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if m.Len() != 50 || m.Buckets() != 8 {
		t.Fatalf("Len=%d Buckets=%d", m.Len(), m.Buckets())
	}
	buf := make([]byte, 4)
	if _, ok := m.Get(0, 25, buf); !ok {
		t.Fatal("Get(25) missing")
	}
	if err := m.Resize(0, 32); err != nil {
		t.Fatal(err)
	}
	if m.Buckets() != 32 || m.Len() != 50 {
		t.Fatalf("after resize: Len=%d Buckets=%d", m.Len(), m.Buckets())
	}
	seen := 0
	m.ForEach(0, func(uint64, []byte) bool { seen++; return true })
	if seen != 50 {
		t.Fatalf("ForEach visited %d", seen)
	}
	for i := uint64(0); i < 50; i++ {
		if ok, err := m.Delete(0, i); err != nil || !ok {
			t.Fatalf("Delete(%d): %v %v", i, ok, err)
		}
	}
	c.Drain()
}

// Two CPUs racing to Put the same new key must leave one entry: the
// lookup and the insert happen under one bucket lock, not as an update
// attempt followed by a separate insert.
func TestMapConcurrentPutInsertsOnce(t *testing.T) {
	sys := newSystem(t, prudence.Config{CPUs: 2, MemoryPages: 1024})
	c := sys.NewCache("map-race", 64)
	m := sys.NewMap(c, 1)
	const keys = 20000
	// started is the key both CPUs may Put; putDone is the last key
	// CPU 1 has put. CPU 0 checks and clears each key before the next.
	var started, putDone atomic.Int64
	var dups int
	sys.RunOnAllCPUs(func(cpu int) {
		for k := int64(1); k <= keys; k++ {
			if cpu == 0 {
				started.Store(k)
			} else {
				for started.Load() < k {
					runtime.Gosched()
				}
			}
			if err := m.Put(cpu, uint64(k), []byte("v")); err != nil {
				t.Errorf("cpu %d: Put(%d): %v", cpu, k, err)
			}
			sys.QuiescentState(cpu)
			if cpu == 1 {
				putDone.Store(k)
				continue
			}
			for putDone.Load() < k {
				runtime.Gosched()
			}
			if n := m.Len(); n != 1 {
				dups++
			}
			for {
				ok, err := m.Delete(0, uint64(k))
				if err != nil {
					t.Errorf("Delete(%d): %v", k, err)
				}
				if !ok {
					break
				}
			}
		}
	})
	if dups != 0 {
		t.Fatalf("%d of %d keys were inserted twice", dups, keys)
	}
	c.Drain()
}

// The read-side primitives work through the facade: a reader inside
// ReadLock keeps a defer-freed object's memory intact.
func TestReadSideProtection(t *testing.T) {
	sys := newSystem(t, prudence.Config{CPUs: 2, MemoryPages: 512})
	c := sys.NewCache("prot", 64)
	obj, err := c.Malloc(0)
	if err != nil {
		t.Fatal(err)
	}
	copy(obj.Bytes(), "protected")
	data := obj.Bytes()

	done := make(chan struct{})
	sys.RunOnAllCPUs(func(cpu int) {
		switch cpu {
		case 1:
			sys.ReadLock(1)
			<-done // writer has defer-freed and churned
			if string(data[:9]) != "protected" {
				t.Error("reader observed reclaimed memory")
			}
			sys.ReadUnlock(1)
		case 0:
			c.FreeDeferred(0, obj)
			for i := 0; i < 100; i++ {
				o, err := c.Malloc(0)
				if err != nil {
					t.Error(err)
					break
				}
				copy(o.Bytes(), "XXXXXXXXXXXX")
				c.Free(0, o)
				sys.QuiescentState(0)
			}
			close(done)
		}
	})
	c.Drain()
}

func TestTreeFacade(t *testing.T) {
	sys := newSystem(t, prudence.Config{CPUs: 2, MemoryPages: 1024})
	c := sys.NewCache("tree", 64)
	tr := sys.NewTree(c)
	for i := uint64(0); i < 100; i++ {
		if err := tr.Put(0, i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 100 {
		t.Fatalf("Len = %d", tr.Len())
	}
	buf := make([]byte, 1)
	if _, ok := tr.Get(0, 42, buf); !ok || buf[0] != 42 {
		t.Fatalf("Get(42) = %v, %v", buf[0], ok)
	}
	if mn, ok := tr.Min(0); !ok || mn != 0 {
		t.Fatalf("Min = %d, %v", mn, ok)
	}
	if mx, ok := tr.Max(0); !ok || mx != 99 {
		t.Fatalf("Max = %d, %v", mx, ok)
	}
	var keys []uint64
	tr.Range(0, 10, 15, func(k uint64, _ []byte) bool {
		keys = append(keys, k)
		return true
	})
	if len(keys) != 6 || keys[0] != 10 || keys[5] != 15 {
		t.Fatalf("Range = %v", keys)
	}
	for i := uint64(0); i < 100; i++ {
		if ok, err := tr.Delete(0, i); err != nil || !ok {
			t.Fatalf("Delete(%d) = %v, %v", i, ok, err)
		}
	}
	c.Drain()
	if sys.UsedBytes() != 0 {
		t.Fatal("memory retained after tree teardown")
	}
}

func TestKmallocFacade(t *testing.T) {
	sys := newSystem(t, prudence.Config{CPUs: 2, MemoryPages: 4096})
	k := sys.NewKmalloc()
	o, err := k.Malloc(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Bytes()) != 128 {
		t.Fatalf("kmalloc(100) class = %d, want 128", len(o.Bytes()))
	}
	k.Free(0, o)
	o2, err := k.Malloc(0, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if len(o2.Bytes()) != 4096 {
		t.Fatalf("kmalloc(3000) class = %d, want 4096", len(o2.Bytes()))
	}
	k.FreeDeferred(0, o2)
	if _, err := k.Malloc(0, 5000); err == nil {
		t.Fatal("kmalloc beyond largest class succeeded")
	}
	k.Drain()
	if sys.UsedBytes() != 0 {
		t.Fatal("memory retained after kmalloc drain")
	}
}

// An EBR-backed system: the whole facade works without quiescent
// states; SLUB over EBR is rejected.
func TestEBRBackedSystem(t *testing.T) {
	sys := newSystem(t, prudence.Config{
		CPUs:        4,
		MemoryPages: 2048,
		Reclamation: prudence.EBR,
	})
	if sys.AllocatorName() != "prudence" {
		t.Fatal("EBR system should default to the Prudence allocator")
	}
	c := sys.NewCache("ebrcache", 128)
	obj, err := c.Malloc(0)
	if err != nil {
		t.Fatal(err)
	}
	copy(obj.Bytes(), "epoch")
	c.FreeDeferred(0, obj)
	sys.Synchronize()
	if sys.GracePeriods() == 0 {
		t.Fatal("no grace periods under EBR")
	}

	// Read-side protection through the facade.
	done := make(chan struct{})
	obj2, _ := c.Malloc(0)
	copy(obj2.Bytes(), "pinned-data")
	data := obj2.Bytes()
	sys.RunOnAllCPUs(func(cpu int) {
		switch cpu {
		case 1:
			sys.ReadLock(1)
			<-done
			if string(data[:11]) != "pinned-data" {
				t.Error("EBR reader observed reclaimed memory")
			}
			sys.ReadUnlock(1)
		case 0:
			c.FreeDeferred(0, obj2)
			for i := 0; i < 50; i++ {
				o, err := c.Malloc(0)
				if err != nil {
					t.Error(err)
					break
				}
				copy(o.Bytes(), "XXXXXXXXXXXXXXX")
				c.Free(0, o)
			}
			close(done)
		}
	})

	// Data structures over the EBR-backed system.
	l := sys.NewList(c)
	if err := l.Insert(0, 1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	m := sys.NewMap(c, 8)
	if err := m.Put(0, 2, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := m.Resize(0, 16); err != nil {
		t.Fatal(err)
	}
	tr := sys.NewTree(c)
	if err := tr.Put(0, 3, []byte("c")); err != nil {
		t.Fatal(err)
	}
	if ok, _ := l.Delete(0, 1); !ok {
		t.Fatal("list delete")
	}
	if ok, _ := m.Delete(0, 2); !ok {
		t.Fatal("map delete")
	}
	if ok, _ := tr.Delete(0, 3); !ok {
		t.Fatal("tree delete")
	}
	c.Drain()
	if sys.UsedBytes() != 0 {
		t.Fatalf("%d bytes retained", sys.UsedBytes())
	}
}

// The registry lists the four built-in schemes, and each is a valid
// Config.Reclamation for BOTH allocators: the historical SLUB-requires-
// RCU restriction fell away when SLUB's deferred frees moved from raw
// RCU callbacks to the scheme-agnostic Retire surface.
func TestReclamationRegistry(t *testing.T) {
	regd := prudence.Reclamations()
	for _, want := range []string{"rcu", "ebr", "hp", "nebr"} {
		found := false
		for _, name := range regd {
			if name == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("scheme %q not registered (have %v)", want, regd)
		}
	}
	if err := (prudence.Config{Allocator: prudence.SLUB, Reclamation: prudence.EBR}).Validate(); err != nil {
		t.Fatalf("Validate rejected SLUB over EBR: %v", err)
	}
}

// Every registered scheme drives every allocator through the facade's
// full surface: caches, deferred frees under a pinned reader, the
// RCU-protected structures, and a clean drain to zero bytes.
// PRUDENCE_SCHEME narrows the sweep to one scheme (the CI matrix runs
// one job per scheme).
func TestWorkoutAllBackends(t *testing.T) {
	schemes := prudence.Reclamations()
	if only := os.Getenv("PRUDENCE_SCHEME"); only != "" {
		schemes = []string{only}
	}
	for _, scheme := range schemes {
		for _, kind := range []prudence.AllocatorKind{prudence.Prudence, prudence.SLUB} {
			t.Run(scheme+"/"+string(kind), func(t *testing.T) {
				sys := newSystem(t, prudence.Config{
					Allocator:   kind,
					CPUs:        4,
					MemoryPages: 2048,
					Reclamation: prudence.ReclamationKind(scheme),
				})
				c := sys.NewCache("workout", 128)

				// Deferred free racing a pinned reader on another CPU.
				// The free waits until the reader is inside its
				// read-side section: a reader that enters after the
				// object is reclaimed is not protecting it.
				obj, err := c.Malloc(0)
				if err != nil {
					t.Fatal(err)
				}
				copy(obj.Bytes(), "pinned-data")
				data := obj.Bytes()
				pinned, done := make(chan struct{}), make(chan struct{})
				sys.RunOnAllCPUs(func(cpu int) {
					switch cpu {
					case 1:
						sys.ReadLock(1)
						close(pinned)
						<-done
						if string(data[:11]) != "pinned-data" {
							t.Errorf("%s reader observed reclaimed memory", scheme)
						}
						sys.ReadUnlock(1)
					case 0:
						<-pinned
						c.FreeDeferred(0, obj)
						for i := 0; i < 50; i++ {
							o, err := c.Malloc(0)
							if err != nil {
								t.Error(err)
								break
							}
							copy(o.Bytes(), "XXXXXXXXXXXXXXX")
							c.Free(0, o)
							sys.QuiescentState(0)
						}
						close(done)
					}
				})
				sys.Synchronize()
				if sys.GracePeriods() == 0 {
					t.Fatalf("no grace periods under %s", scheme)
				}

				// The RCU-protected structures over this backend.
				l := sys.NewList(c)
				if err := l.Insert(0, 1, []byte("a")); err != nil {
					t.Fatal(err)
				}
				m := sys.NewMap(c, 8)
				if err := m.Put(0, 2, []byte("b")); err != nil {
					t.Fatal(err)
				}
				if err := m.Resize(0, 16); err != nil {
					t.Fatal(err)
				}
				tr := sys.NewTree(c)
				if err := tr.Put(0, 3, []byte("c")); err != nil {
					t.Fatal(err)
				}
				if ok, _ := l.Delete(0, 1); !ok {
					t.Fatal("list delete")
				}
				if ok, _ := m.Delete(0, 2); !ok {
					t.Fatal("map delete")
				}
				if ok, _ := tr.Delete(0, 3); !ok {
					t.Fatal("tree delete")
				}
				c.Drain()
				if sys.UsedBytes() != 0 {
					t.Fatalf("%d bytes retained under %s/%s", sys.UsedBytes(), scheme, kind)
				}
			})
		}
	}
}

func TestDebugFacade(t *testing.T) {
	sys := newSystem(t, prudence.Config{CPUs: 2, MemoryPages: 512})
	c := sys.NewCache("dbg", 128)
	d, err := c.EnableDebug(prudence.DebugConfig{RedZone: true, TrackOwners: true})
	if err != nil {
		t.Fatal(err)
	}
	o, err := c.Malloc(0)
	if err != nil {
		t.Fatal(err)
	}
	copy(o.Bytes(), "guarded")
	if bad := d.CheckRedZones(); len(bad) != 0 {
		t.Fatalf("clean object flagged: %v", bad)
	}
	if got := d.Leaks(); got != "1 live objects (cpu0:1)" {
		t.Fatalf("Leaks = %q", got)
	}
	c.Free(0, o)
	if got := d.Leaks(); got != "no live objects" {
		t.Fatalf("Leaks after free = %q", got)
	}
	c.Drain()
}
