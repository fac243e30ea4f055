package core

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"prudence/internal/memarena"
	"prudence/internal/pagealloc"
	"prudence/internal/slabcore"
	gsync "prudence/internal/sync"
	"prudence/internal/vcpu"
)

// manualGP is a grace-period engine the test advances by hand, so which
// deferred objects are reusable at any point is decided by the test,
// not by how fast the machine runs. It implements only what the
// allocator calls; the embedded nil Backend panics on anything else.
type manualGP struct {
	gsync.Backend
	completed atomic.Uint64
}

func (m *manualGP) Snapshot() gsync.Cookie      { return gsync.Cookie(m.completed.Load() + 1) }
func (m *manualGP) Elapsed(c gsync.Cookie) bool { return m.completed.Load() >= uint64(c) }
func (m *manualGP) GPsCompleted() uint64        { return m.completed.Load() }
func (m *manualGP) NeedGP()                     {}
func (m *manualGP) ExpediteGP()                 {}
func (m *manualGP) QuiescentState(int)          {}
func (m *manualGP) Stopped() bool               { return false }
func (m *manualGP) Synchronize()                { m.advance() }
func (m *manualGP) advance()                    { m.completed.Add(1) }

// newManualCache builds a Prudence cache over a manual grace-period
// engine on a fresh arena and machine.
func newManualCache(t *testing.T, cpus, pages int, opts Options, cfg slabcore.CacheConfig) (*Cache, *manualGP, *pagealloc.Allocator, *vcpu.Machine) {
	t.Helper()
	arena := memarena.New(pages)
	t.Cleanup(func() { arena.Close() })
	pa := pagealloc.New(arena)
	m := vcpu.NewMachine(cpus)
	t.Cleanup(m.Stop)
	gp := &manualGP{}
	return New(pa, gp, m, opts).NewCache(cfg).(*Cache), gp, pa, m
}

// waitIdle waits until cpu's idle worker has run everything queued (an
// armed pre-flush), so its node-lock traffic is attributed to cpu.
func waitIdle(m *vcpu.Machine, cpu int) {
	for m.CPU(cpu).IdleBusy() {
		runtime.Gosched()
	}
}

// nodeLocks snapshots every node's lock-acquisition count.
func nodeLocks(c *Cache) []uint64 {
	out := make([]uint64, len(c.base.NodesArr))
	for i, n := range c.base.NodesArr {
		out[i] = n.Locks()
	}
	return out
}

// pairLoopLockers runs the Fig. 6 pair loop (Malloc, FreeDeferred,
// QuiescentState) on every vCPU in turn, one grace period per round,
// after giving every vCPU's own node enough free slabs for a round. The
// cache uses DefaultConfig's node split, or one node for all vCPUs when
// shared is set. It returns, per node, the set of vCPUs whose turns
// locked it, and fails the test on any object a vCPU got from a node
// not its own.
func pairLoopLockers(t *testing.T, shared bool) []map[int]bool {
	const (
		cpus          = 4
		slabsPerNode  = 8   // 128 objects of 256 B: covers a round with every slab in the scan window
		pairsPerRound = 100 // three object caches' worth: refills, spills, pre-moves and pre-flushes
		rounds        = 20
	)
	cfg := slabcore.DefaultConfig("local", 256, cpus)
	if shared {
		cfg.Nodes = 1
	}
	cfg.FreeSlabLimit = 1 << 20 // keep the provisioned slabs: a shrink-regrow would leave the loop's path
	c, gp, _, m := newManualCache(t, cpus, 4096, Options{}, cfg)
	for cpu := 0; cpu < cpus; cpu++ {
		for i := 0; i < slabsPerNode; i++ {
			if _, err := c.base.NewSlab(c.base.NodeFor(cpu)); err != nil {
				t.Fatal(err)
			}
		}
	}
	grows := c.base.Ctr.Grows.Load()
	lockers := make([]map[int]bool, len(c.base.NodesArr))
	for i := range lockers {
		lockers[i] = map[int]bool{}
	}
	for round := 0; round < rounds; round++ {
		for cpu := 0; cpu < cpus; cpu++ {
			home := c.base.NodeFor(cpu)
			before := nodeLocks(c)
			for i := 0; i < pairsPerRound; i++ {
				r, err := c.Malloc(cpu)
				if err != nil {
					t.Fatalf("round %d cpu %d: %v", round, cpu, err)
				}
				if r.Slab.Node() != home {
					t.Fatalf("round %d: cpu %d got an object from node %d, its node is %d",
						round, cpu, r.Slab.Node().ID(), home.ID())
				}
				c.FreeDeferred(cpu, r)
				gp.QuiescentState(cpu)
			}
			waitIdle(m, cpu)
			for n, locks := range nodeLocks(c) {
				if locks != before[n] {
					lockers[n][cpu] = true
				}
			}
		}
		gp.advance()
	}
	if g := c.base.Ctr.Grows.Load(); g != grows {
		t.Fatalf("the loop grew %d slabs; every node was provisioned for a whole round", g-grows)
	}
	c.Drain()
	return lockers
}

// The Fig. 6 pair loop is vCPU-local: with one node per vCPU (the
// DefaultConfig split) every vCPU takes every object from its own node
// and locks no other vCPU's node. The same loop on one shared node is
// the contended layout this replaces, and the check must see it.
func TestPairLoopStaysOnOwnNode(t *testing.T) {
	for n, cpus := range pairLoopLockers(t, false) {
		if len(cpus) != 1 || !cpus[n] {
			t.Errorf("node %d locked by vCPUs %v, want only vCPU %d", n, cpus, n)
		}
	}
	shared := pairLoopLockers(t, true)
	if len(shared[0]) < 2 {
		t.Fatalf("with one node the check saw lockers %v; it cannot tell a shared node from an owned one", shared[0])
	}
}

// With the arena full and free slabs on another vCPU's node, Malloc
// takes objects from that sibling node instead of growing or failing.
func TestMallocFallsBackToSiblingNode(t *testing.T) {
	const cpus = 2
	cfg := slabcore.DefaultConfig("sibling", 256, cpus)
	c, _, pa, _ := newManualCache(t, cpus, 16, Options{}, cfg)
	for i := 0; i < 2; i++ {
		if _, err := c.base.NewSlab(c.base.NodeFor(0)); err != nil {
			t.Fatal(err)
		}
	}
	for {
		if _, err := pa.Alloc(0); errors.Is(err, pagealloc.ErrOutOfMemory) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	grows := c.base.Ctr.Grows.Load()
	r, err := c.Malloc(1)
	if err != nil {
		t.Fatalf("Malloc on vCPU 1 failed with free slabs on vCPU 0's node: %v", err)
	}
	if r.Slab.Node() != c.base.NodeFor(0) {
		t.Fatalf("object came from node %d, want sibling node 0", r.Slab.Node().ID())
	}
	if g := c.base.Ctr.Grows.Load(); g != grows {
		t.Fatalf("Malloc grew %d slabs with a sibling node holding free ones", g-grows)
	}
	if ooms := c.base.Ctr.OOMs.Load(); ooms != 0 {
		t.Fatalf("%d OOMs", ooms)
	}
	c.Free(1, r)
}

// The FreeDeferred overflow spill and the idle pre-flush move batches
// through per-vCPU buffers: once warm, neither allocates.
func TestSpillAndPreflushDoNotAllocate(t *testing.T) {
	const runs = 200
	cfg := slabcore.DefaultConfig("allocs", 256, 2)
	cfg.FreeSlabLimit = 1 << 20 // a shrink-regrow cycle allocates slab metadata
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"spill", Options{DisablePreFlush: true}},
		{"preflush", Options{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, gp, _, m := newManualCache(t, 2, 4096, tc.opts, cfg)
			cl := c.percpu[0]
			// One run: three object caches' worth of pairs inside one
			// grace period. The first cache's worth merges the last
			// run's deferred objects and fills the latent cache; the
			// rest refill from the slabs, so the latent cache overflows
			// (a spill) and the object and latent caches together
			// overrun the cache size (an armed pre-flush, which each
			// pair waits out so it runs while the overrun lasts). The
			// grace period then ends and the next run reuses the same
			// slabs.
			run := func() {
				for i := 0; i < 3*cfg.CacheSize; i++ {
					r, err := c.Malloc(0)
					if err != nil {
						t.Fatal(err)
					}
					c.FreeDeferred(0, r)
					waitIdle(m, 0)
				}
				gp.advance()
			}
			for i := 0; i < 20; i++ { // grow the slabs and every buffer to steady state
				run()
			}
			cl.objs.Lock()
			cl.spillBuf = cl.spillBuf[:0]
			cl.objs.Unlock()
			preflushes := c.base.Ctr.PreFlushes.Load()
			if avg := testing.AllocsPerRun(runs, run); avg != 0 {
				t.Fatalf("%s path allocates %v times per run, want 0", tc.name, avg)
			}
			switch tc.name {
			case "spill":
				if len(cl.spillBuf) == 0 {
					t.Fatal("no overflow spill ran: the test measured the wrong path")
				}
			case "preflush":
				if c.base.Ctr.PreFlushes.Load() == preflushes {
					t.Fatal("no pre-flush ran: the test measured the wrong path")
				}
			}
		})
	}
}
