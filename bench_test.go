// Benchmarks regenerating the paper's evaluation, one per table/figure.
//
//	go test -bench=. -benchmem
//
// Figure 6  -> BenchmarkFig6Micro/{slub,prudence}/<size>
// Figure 3  -> BenchmarkFig3Endurance/{slub,prudence}
// Figures 7-12 -> BenchmarkApps/<profile>/{slub,prudence} (per-cache
//
//	metrics reported as custom benchmark metrics)
//
// Figure 13 -> the ns/op ratio of the BenchmarkApps pairs
// §3.3 cost -> BenchmarkAllocPath/{hit,refill,grow}
// §3.4 DoS  -> BenchmarkDoS/{slub,prudence}
// Ablation  -> BenchmarkAblation/<variant>
// Map reads -> BenchmarkMapLookup/{Get,GetMany}
//
// Absolute numbers are machine-dependent; EXPERIMENTS.md records the
// paper-vs-measured comparison for a reference run.
package prudence_test

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"prudence"
	"prudence/internal/bench"
	"prudence/internal/core"
	"prudence/internal/rcutree"
	"prudence/internal/slabcore"
	"prudence/internal/vcpu"
	"prudence/internal/workload"
)

func benchConfig() bench.Config {
	cfg := bench.DefaultConfig()
	cfg.CPUs = 4
	cfg.ArenaPages = 8192
	return cfg
}

// BenchmarkFig6Micro measures kmalloc/kfree_deferred pairs (Figure 6).
// ns/op is per pair across all CPUs.
func BenchmarkFig6Micro(b *testing.B) {
	for _, kind := range []bench.Kind{bench.KindSLUB, bench.KindPrudence} {
		for _, size := range bench.Fig6Sizes {
			b.Run(fmt.Sprintf("%s/%d", kind, size), func(b *testing.B) {
				cfg := benchConfig()
				cfg.PressureWatermark = cfg.ArenaPages / 2
				s := bench.NewStack(kind, cfg)
				defer s.Close()
				cache := s.Alloc.NewCache(slabcore.DefaultConfig(
					fmt.Sprintf("kmalloc-%d", size), size, cfg.CPUs))
				pairsPerCPU := b.N/cfg.CPUs + 1
				b.ResetTimer()
				res := workload.RunMicro(s.Env(), cache, pairsPerCPU)
				b.StopTimer()
				b.ReportMetric(res.PairsPerSec(), "pairs/s")
				b.ReportMetric(float64(res.Stalls), "stalls")
				cache.Drain()
			})
		}
	}
}

// BenchmarkFig3Endurance runs the §3.5 list-update storm (Figure 3).
// The oom metric is 1 when the allocator exhausted the arena.
func BenchmarkFig3Endurance(b *testing.B) {
	for _, kind := range []bench.Kind{bench.KindSLUB, bench.KindPrudence} {
		b.Run(string(kind), func(b *testing.B) {
			cfg := benchConfig()
			cfg.ArenaPages = 2048
			cfg.PressureWatermark = cfg.ArenaPages * 3 / 4
			cfg.RCU.ExpeditedDelay = cfg.RCU.ThrottleDelay
			cfg.RCU.ExpeditedBlimit = 3 * cfg.RCU.Blimit
			s := bench.NewStack(kind, cfg)
			defer s.Close()
			cache := s.Alloc.NewCache(slabcore.DefaultConfig("list-512", 512, cfg.CPUs))
			b.ResetTimer()
			res := workload.RunEndurance(s.Env(), cache, workload.EnduranceConfig{
				ListLen:       64,
				Updates:       b.N/cfg.CPUs + 1,
				PacePerUpdate: time.Microsecond,
			})
			b.StopTimer()
			oom := 0.0
			if res.OOM {
				oom = 1
			}
			b.ReportMetric(oom, "oom")
			b.ReportMetric(float64(res.PeakPages), "peak-pages")
		})
	}
}

// BenchmarkApps runs each application profile (Figures 7-13). ns/op is
// per transaction; the reported metrics are the paper's per-run
// attributes aggregated over the profile's caches.
func BenchmarkApps(b *testing.B) {
	for _, p := range workload.Profiles() {
		for _, kind := range []bench.Kind{bench.KindSLUB, bench.KindPrudence} {
			b.Run(p.Name+"/"+string(kind), func(b *testing.B) {
				cfg := benchConfig()
				cfg.ArenaPages = 16384
				s := bench.NewStack(kind, cfg)
				defer s.Close()
				b.ResetTimer()
				res, err := workload.RunApp(s.Env(), s.Alloc, p, b.N/cfg.CPUs+1)
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				var hits, allocs, ocChurn, slabChurn, peak, defers, frees float64
				for _, rep := range res.PerCache {
					hits += float64(rep.Snapshot.CacheHits + rep.Snapshot.LatentHits)
					allocs += float64(rep.Snapshot.Allocs)
					ocChurn += float64(rep.Snapshot.ObjectCacheChurns())
					slabChurn += float64(rep.Snapshot.SlabChurns())
					peak += float64(rep.Snapshot.PeakSlabs)
					defers += float64(rep.Snapshot.DeferredFrees)
					frees += float64(rep.Snapshot.Frees + rep.Snapshot.DeferredFrees)
				}
				if allocs > 0 {
					b.ReportMetric(hits/allocs*100, "hit%")       // Fig 7
					b.ReportMetric(defers/frees*100, "deferred%") // Fig 12
				}
				b.ReportMetric(ocChurn, "oc-churns")     // Fig 8
				b.ReportMetric(slabChurn, "slab-churns") // Fig 9
				b.ReportMetric(peak, "peak-slabs")       // Fig 10
				b.ReportMetric(res.TxnPerSec(), "txn/s") // Fig 13
				for _, c := range s.Alloc.Caches() {
					c.Drain()
				}
			})
		}
	}
}

// BenchmarkAllocPath measures the three allocation paths of §3.3
// (hit : refill : grow = 1 : 4 : 14 in the paper).
func BenchmarkAllocPath(b *testing.B) {
	res, err := bench.RunCostTable(benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("hit", func(b *testing.B) {
		b.ReportMetric(float64(res.Hit.Nanoseconds()), "ns/path")
		b.ReportMetric(1.0, "vs-hit")
	})
	b.Run("refill", func(b *testing.B) {
		b.ReportMetric(float64(res.Refill.Nanoseconds()), "ns/path")
		b.ReportMetric(res.RefillFactor(), "vs-hit")
	})
	b.Run("grow", func(b *testing.B) {
		b.ReportMetric(float64(res.Grow.Nanoseconds()), "ns/path")
		b.ReportMetric(res.GrowFactor(), "vs-hit")
	})
}

// BenchmarkDoS runs the §3.4 open/close flood; the survived metric is 1
// if the allocator rode the attack out.
func BenchmarkDoS(b *testing.B) {
	for _, kind := range []bench.Kind{bench.KindSLUB, bench.KindPrudence} {
		b.Run(string(kind), func(b *testing.B) {
			cfg := benchConfig()
			cfg.ArenaPages = 512
			cfg.RCU.Blimit = 4
			cfg.RCU.ThrottleDelay = 2 * time.Millisecond
			cfg.RCU.ExpeditedDelay = 2 * time.Millisecond
			cfg.RCU.ExpeditedBlimit = 12
			s := bench.NewStack(kind, cfg)
			defer s.Close()
			cache := s.Alloc.NewCache(slabcore.DefaultConfig("filp", 256, cfg.CPUs))
			b.ResetTimer()
			res := workload.RunDoS(s.Env(), cache, 500*time.Millisecond)
			b.StopTimer()
			survived := 1.0
			if res.OOM {
				survived = 0
			}
			b.ReportMetric(survived, "survived")
			b.ReportMetric(float64(res.Cycles), "cycles")
		})
	}
}

// BenchmarkAblation measures the 512 B micro-benchmark with each of
// Prudence's optimizations disabled in turn (DESIGN.md's design-choice
// ablations).
func BenchmarkAblation(b *testing.B) {
	variants := []struct {
		name string
		opts core.Options
	}{
		{"full", core.Options{}},
		{"no-partial-refill", core.Options{DisablePartialRefill: true}},
		{"no-pre-flush", core.Options{DisablePreFlush: true}},
		{"no-pre-move", core.Options{DisablePreMove: true}},
		{"no-slab-selection", core.Options{DisableSlabSelection: true}},
		{"all-disabled", core.Options{
			DisablePartialRefill: true,
			DisablePreFlush:      true,
			DisablePreMove:       true,
			DisableSlabSelection: true,
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			cfg := benchConfig()
			cfg.Prudence = v.opts
			s := bench.NewStack(bench.KindPrudence, cfg)
			defer s.Close()
			cache := s.Alloc.NewCache(slabcore.DefaultConfig("kmalloc-512", 512, cfg.CPUs))
			b.ResetTimer()
			res := workload.RunMicro(s.Env(), cache, b.N/cfg.CPUs+1)
			b.StopTimer()
			b.ReportMetric(res.PairsPerSec(), "pairs/s")
			cache.Drain()
		})
	}
}

// BenchmarkTreeUpdateStorm exercises the §3.1 multi-object deferral: an
// RCU tree whose every update defer-frees the rebuilt path. ns/op is
// per update across all CPUs; deferred/op shows the burst factor.
func BenchmarkTreeUpdateStorm(b *testing.B) {
	for _, kind := range []bench.Kind{bench.KindSLUB, bench.KindPrudence} {
		b.Run(string(kind), func(b *testing.B) {
			cfg := benchConfig()
			s := bench.NewStack(kind, cfg)
			defer s.Close()
			cache := s.Alloc.NewCache(slabcore.DefaultConfig("treenode", 128, cfg.CPUs))
			trees := make([]*rcutree.Tree, cfg.CPUs)
			for i := range trees {
				trees[i] = rcutree.New(cache, s.RCU)
			}
			perCPU := b.N/cfg.CPUs + 1
			b.ResetTimer()
			s.Machine.RunOnAll(func(c *vcpu.CPU) {
				cpu := c.ID()
				s.RCU.ExitIdle(cpu)
				defer s.RCU.EnterIdle(cpu)
				tr := trees[cpu]
				val := []byte{1}
				for i := 0; i < 128; i++ {
					if err := tr.Put(cpu, uint64(i), val); err != nil {
						b.Error(err)
						return
					}
				}
				for i := 0; i < perCPU; i++ {
					if err := tr.Put(cpu, uint64(i%128), val); err != nil {
						b.Error(err)
						return
					}
					s.RCU.QuiescentState(cpu)
				}
			})
			b.StopTimer()
			snap := cache.Counters().Snapshot()
			b.ReportMetric(float64(snap.DeferredFrees)/float64(b.N), "deferred/op")
			for i := range trees {
				for k := uint64(0); k < 128; k++ {
					if _, err := trees[i].Delete(0, k); err != nil {
						b.Fatal(err)
					}
				}
			}
			cache.Drain()
		})
	}
}

// BenchmarkMapLookup measures session-map reads through the facade over
// 100 k resident 128 B entries in 16 k buckets, perfbench's
// session-read table: one Get per key against one GetMany per
// MaxGetMany keys, in the same random key order. ns/key compares them.
func BenchmarkMapLookup(b *testing.B) {
	const keys = 100_000
	sys, err := prudence.New(prudence.Config{CPUs: 1, MemoryPages: 8192})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	m := sys.NewMap(sys.NewCache("sessions", 128), 1<<14)
	val := make([]byte, 64)
	for k := uint64(0); k < keys; k++ {
		if err := m.Put(0, k, val); err != nil {
			b.Fatal(err)
		}
	}
	order := rand.New(rand.NewPCG(1, 2)).Perm(keys)
	bufs := make([][]byte, prudence.MaxGetMany)
	for j := range bufs {
		bufs[j] = make([]byte, 128)
	}
	perKey := func(b *testing.B, keysPerOp int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*keysPerOp), "ns/key")
	}
	b.Run("Get", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := m.Get(0, uint64(order[i%keys]), bufs[0]); !ok {
				b.Fatal("resident key missing")
			}
			sys.QuiescentState(0)
		}
		perKey(b, 1)
	})
	b.Run("GetMany", func(b *testing.B) {
		var (
			ks   [prudence.MaxGetMany]uint64
			ns   [prudence.MaxGetMany]int
			sink byte
		)
		for i := 0; i < b.N; i++ {
			for j := range ks {
				ks[j] = uint64(order[(i*len(ks)+j)%keys])
			}
			sink ^= m.GetMany(0, ks[:], bufs, ns[:])
			if ns[0] < 0 {
				b.Fatal("resident key missing")
			}
			sys.QuiescentState(0)
		}
		perKey(b, len(ks))
		mapLookupSink = sink
	})
}

// mapLookupSink keeps BenchmarkMapLookup's GetMany result alive.
var mapLookupSink byte
