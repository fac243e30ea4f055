package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"

	"prudence"
)

// layerMetrics is the per-layer ledger every traced run prints, in
// order. A metric whose layer the workload never reaches is printed as
// 0 with n=0.
var layerMetrics = []struct{ name, unit string }{
	{"core.malloc_p50_ns", "ns"},
	{"core.malloc_p99_ns", "ns"},
	{"core.free_deferred_p50_ns", "ns"},
	{"core.hit_ratio", "share"},
	{"core.latent_hit_ratio", "share"},
	{"core.refills_per_1k_allocs", "per_1k"},
	{"core.flushes_per_1k_allocs", "per_1k"},
	{"core.gp_waits_per_1k_allocs", "per_1k"},
	{"core.lock_wait_ms", "ms"},
	{"slabcore.lock_wait_ms", "ms"},
	{"slabcore.grows_per_1k_allocs", "per_1k"},
	{"slabcore.shrinks_per_1k_allocs", "per_1k"},
	{"slabcore.slab_churns_per_1k_allocs", "per_1k"},
	{"slabcore.peak_slabs", "count"},
	{"pagealloc.allocs_per_1k_allocs", "per_1k"},
	{"pagealloc.splits", "count"},
	{"pagealloc.coalesces", "count"},
	{"pagealloc.failures", "count"},
	{"pagealloc.lock_wait_ms", "ms"},
	{"rcu.quiescent_state_p50_ns", "ns"},
	{"rcu.gp_per_1k_deferred_frees", "per_1k"},
	{"rcu.gp_duration_mean_us", "us"},
	{"rcu.expedited_advances", "count"},
	{"rcuhash.get_p50_ns", "ns"},
	{"rcuhash.put_p50_ns", "ns"},
	{"rcuhash.delete_p50_ns", "ns"},
	{"rcutree.get_p50_ns", "ns"},
	{"server.submit_wait_p99_us", "us"},
	{"server.dispatch_ns_per_op", "ns"},
	{"server.expedites_per_1k_ops", "per_1k"},
	{"server.peak_latent_objects", "count"},
	{"stats.lock_wait_ms", "ms"},
	{"http.self_p50_us", "us"},
	{"http.status_503_share", "share"},
	{"go.allocs_per_op", "allocs/op"},
	{"go.gc_cycles", "count"},
	{"trace.overhead_share", "share"},
}

// ledger collects the per-layer metrics of one traced run.
type ledger struct {
	vals map[string]metric
}

func newLedger() *ledger { return &ledger{vals: map[string]metric{}} }

func (l *ledger) set(name string, v float64, n int64) {
	l.vals[name] = metric{name: name, value: v, n: n}
}

// setPercentiles records p50 (and p99 when p99name is not empty) of s
// in nanoseconds.
func (l *ledger) setPercentiles(p50name, p99name string, s samples) {
	s = s.sorted()
	l.set(p50name, float64(s.percentile(0.50)), int64(len(s)))
	if p99name != "" {
		l.set(p99name, float64(s.percentile(0.99)), int64(len(s)))
	}
}

func (l *ledger) metrics() []metric {
	out := make([]metric, 0, len(layerMetrics))
	for _, d := range layerMetrics {
		m := l.vals[d.name]
		m.name, m.unit = d.name, d.unit
		out = append(out, m)
	}
	return out
}

// perK returns x per thousand of base, or 0 without a base.
func perK(x, base float64) float64 {
	if base == 0 {
		return 0
	}
	return 1000 * x / base
}

// probe brackets a traced phase: it turns mutex profiling on and
// snapshots the metrics gather returns and the Go runtime's counters,
// and on stop credits the deltas to the ledger.
type probe struct {
	gather func() map[string]float64
	before map[string]float64
	mem    runtime.MemStats
}

// mutexFraction samples one in this many contention events; the runtime
// scales the recorded delay back up.
const mutexFraction = 5

func startProbe(gather func() map[string]float64) *probe {
	p := &probe{gather: gather, before: gather()}
	runtime.ReadMemStats(&p.mem)
	runtime.SetMutexProfileFraction(mutexFraction)
	return p
}

// stop ends the traced phase. ops is the operations the phase
// completed; cs, when non-nil, is the cache counter delta read through
// Cache.Stats (otherwise the cache counters come from the metric
// snapshot, summed over every cache).
func (p *probe) stop(l *ledger, ops int64, cs *prudence.CacheStats) {
	runtime.SetMutexProfileFraction(0)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	after := p.gather()
	delta := func(name string) float64 { return sum(after, name) - sum(p.before, name) }

	if cs == nil {
		cs = &prudence.CacheStats{
			Allocs:        uint64(delta("prudence_cache_allocs_total")),
			CacheHits:     uint64(delta("prudence_cache_hits_total")),
			LatentHits:    uint64(delta("prudence_cache_latent_hits_total")),
			Refills:       uint64(delta("prudence_cache_refills_total")),
			Flushes:       uint64(delta("prudence_cache_flushes_total")),
			GPWaits:       uint64(delta("prudence_cache_gp_waits_total")),
			Grows:         uint64(delta("prudence_cache_grows_total")),
			Shrinks:       uint64(delta("prudence_cache_shrinks_total")),
			DeferredFrees: uint64(delta("prudence_cache_deferred_frees_total")),
			PeakSlabs:     int(sum(after, "prudence_cache_slabs_peak")),
		}
	}
	allocs := float64(cs.Allocs)
	n := int64(cs.Allocs)
	l.set("core.hit_ratio", float64(cs.CacheHits)/max(allocs, 1), n)
	l.set("core.latent_hit_ratio", float64(cs.LatentHits)/max(allocs, 1), n)
	l.set("core.refills_per_1k_allocs", perK(float64(cs.Refills), allocs), n)
	l.set("core.flushes_per_1k_allocs", perK(float64(cs.Flushes), allocs), n)
	l.set("core.gp_waits_per_1k_allocs", perK(float64(cs.GPWaits), allocs), n)
	l.set("slabcore.grows_per_1k_allocs", perK(float64(cs.Grows), allocs), n)
	l.set("slabcore.shrinks_per_1k_allocs", perK(float64(cs.Shrinks), allocs), n)
	l.set("slabcore.slab_churns_per_1k_allocs", perK(float64(cs.SlabChurns()), allocs), n)
	l.set("slabcore.peak_slabs", float64(cs.PeakSlabs), 1)

	pages := delta("prudence_page_allocs_total")
	l.set("pagealloc.allocs_per_1k_allocs", perK(pages, allocs), int64(pages))
	l.set("pagealloc.splits", delta("prudence_page_splits_total"), 1)
	l.set("pagealloc.coalesces", delta("prudence_page_coalesces_total"), 1)
	l.set("pagealloc.failures", delta("prudence_page_alloc_failures_total"), 1)

	gps := delta("prudence_gp_completed_total")
	l.set("rcu.gp_per_1k_deferred_frees", perK(gps, float64(cs.DeferredFrees)), int64(gps))
	if c := delta("prudence_gp_duration_seconds_count"); c > 0 {
		l.set("rcu.gp_duration_mean_us", 1e6*delta("prudence_gp_duration_seconds_sum")/c, int64(c))
	}
	l.set("rcu.expedited_advances", delta("prudence_sync_expedited_advances_total"), 1)

	l.set("go.allocs_per_op", float64(mem.Mallocs-p.mem.Mallocs)/float64(max(ops, 1)), ops)
	l.set("go.gc_cycles", float64(mem.NumGC-p.mem.NumGC), 1)

	waits, err := readLockWait()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: mutex profile:", err)
		return
	}
	for _, layer := range []string{"core", "slabcore", "pagealloc", "stats"} {
		l.set(layer+".lock_wait_ms", waits[layer], 1)
	}
	for layer, ms := range waits {
		fmt.Printf("lock-wait %-10s %10.3f ms\n", layer, ms)
	}
}

// sum adds every sample of the metric family name (all label sets).
func sum(g map[string]float64, name string) float64 {
	var t float64
	for k, v := range g {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// overhead records what tracing cost: the traced phase's throughput
// against the untraced base phase's, as the share lost.
func (l *ledger) overhead(base, traced *phase) {
	if b := base.opsPerSec(); b > 0 {
		l.set("trace.overhead_share", 1-traced.opsPerSec()/b, traced.ops)
	}
}
