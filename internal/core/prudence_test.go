package core_test

import (
	"errors"
	"testing"
	"time"

	"prudence/internal/alloc"
	"prudence/internal/alloctest"
	"prudence/internal/core"
	"prudence/internal/fault"
	"prudence/internal/pagealloc"
	"prudence/internal/slabcore"
	"prudence/internal/trace"
)

func build(s *alloctest.Stack) alloc.Allocator {
	return core.New(s.Pages, s.RCU, s.Machine, core.Options{})
}

func buildWith(opts core.Options) alloctest.BuildAllocator {
	return func(s *alloctest.Stack) alloc.Allocator {
		return core.New(s.Pages, s.RCU, s.Machine, opts)
	}
}

func TestConformance(t *testing.T) {
	alloctest.RunConformance(t, build)
}

// Every ablation variant must still be a correct allocator.
func TestConformanceAblations(t *testing.T) {
	variants := map[string]core.Options{
		"NoPartialRefill": {DisablePartialRefill: true},
		"NoPreFlush":      {DisablePreFlush: true},
		"NoPreMove":       {DisablePreMove: true},
		"NoSlabSelection": {DisableSlabSelection: true},
		"NoOOMDelay":      {DisableOOMDelay: true},
		"WithPrediction":  {EnablePrediction: true},
		"AllOff": {
			DisablePartialRefill: true,
			DisablePreFlush:      true,
			DisablePreMove:       true,
			DisableSlabSelection: true,
			DisableOOMDelay:      true,
		},
	}
	for name, opts := range variants {
		t.Run(name, func(t *testing.T) {
			alloctest.RunConformance(t, buildWith(opts))
		})
	}
}

func TestName(t *testing.T) {
	s := alloctest.NewStack(t, alloctest.DefaultStackConfig(), build)
	if got := s.Alloc.Name(); got != "prudence" {
		t.Fatalf("Name() = %q, want prudence", got)
	}
}

// The headline behaviour: after a grace period, deferred objects are
// served straight from the latent cache merge — no node-list refill, no
// RCU callback processing.
func TestLatentMergeServesAllocations(t *testing.T) {
	s := alloctest.NewStack(t, alloctest.DefaultStackConfig(), build)
	c := s.Alloc.NewCache(alloctest.TestCacheConfig("latent"))

	// Drain the object cache so the next allocations miss, then defer a
	// few objects and let the grace period elapse.
	var warm []slabcore.Ref
	for i := 0; i < 8; i++ {
		r, err := c.Malloc(0)
		if err != nil {
			t.Fatal(err)
		}
		warm = append(warm, r)
	}
	for _, r := range warm {
		c.FreeDeferred(0, r)
	}
	s.RCU.Synchronize()

	before := c.Counters().Snapshot()
	r, err := c.Malloc(0)
	if err != nil {
		t.Fatal(err)
	}
	after := c.Counters().Snapshot().Sub(before)
	if after.LatentHits != 1 {
		t.Fatalf("LatentHits delta = %d, want 1 (refills=%d hits=%d)", after.LatentHits, after.Refills, after.CacheHits)
	}
	if after.Refills != 0 {
		t.Fatalf("latent merge still refilled from node lists (%d refills)", after.Refills)
	}
	c.Free(0, r)
	c.Drain()
}

// Latent cache is bounded by the object cache size; overflow goes to
// latent slabs, pre-moving the slab.
func TestLatentCacheBoundedSpillsToLatentSlab(t *testing.T) {
	s := alloctest.NewStack(t, alloctest.DefaultStackConfig(), build)
	cfg := alloctest.TestCacheConfig("bound")
	a := s.Alloc.(*core.Allocator)
	c := a.NewCache(cfg).(*core.Cache)

	// Block grace periods so nothing can merge out of the latent cache.
	s.RCU.ExitIdle(1)
	s.RCU.ReadLock(1)
	defer func() {
		s.RCU.ReadUnlock(1)
		s.RCU.QuiescentState(1)
		s.RCU.EnterIdle(1)
		c.Drain()
	}()

	var refs []slabcore.Ref
	for i := 0; i < cfg.CacheSize*3; i++ {
		r, err := c.Malloc(0)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, r)
	}
	for _, r := range refs {
		c.FreeDeferred(0, r)
	}
	if got := c.LatentTotal(); got != int64(len(refs)) {
		t.Fatalf("LatentTotal = %d, want %d", got, len(refs))
	}
	// With 24 deferred and a latent cache capped at 8, at least 16 went
	// to latent slabs; pre-movement should have been recorded.
	ctr := c.Counters().Snapshot()
	if ctr.PreMoves == 0 {
		t.Fatal("no slab pre-movements despite latent slab spills")
	}
}

// Partial refill: with d latent objects, a refill adds only o-d objects
// so the later merge cannot overflow the cache.
func TestPartialRefill(t *testing.T) {
	s := alloctest.NewStack(t, alloctest.DefaultStackConfig(), build)
	cfg := alloctest.TestCacheConfig("partial")
	c := s.Alloc.NewCache(cfg)

	// Block grace periods so latent objects stay latent.
	s.RCU.ExitIdle(1)
	s.RCU.ReadLock(1)
	defer func() {
		s.RCU.ReadUnlock(1)
		s.RCU.QuiescentState(1)
		s.RCU.EnterIdle(1)
		c.Drain()
	}()

	// Put d=4 objects in the latent cache, empty the object cache, then
	// trigger a refill.
	var batch []slabcore.Ref
	for i := 0; i < 20; i++ {
		r, err := c.Malloc(0)
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, r)
	}
	for _, r := range batch[:4] {
		c.FreeDeferred(0, r)
	}
	// Drain the object cache through allocations until a refill happens.
	before := c.Counters().Snapshot()
	var got []slabcore.Ref
	for {
		r, err := c.Malloc(0)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, r)
		if c.Counters().Snapshot().Refills > before.Refills {
			break
		}
		if len(got) > 100 {
			t.Fatal("no refill after 100 allocations")
		}
	}
	d := c.Counters().Snapshot().Sub(before)
	if d.PartialFills == 0 {
		t.Fatalf("refill with latent backlog was not partial: %+v", d)
	}
	for _, r := range append(batch[4:], got...) {
		c.Free(0, r)
	}
}

// OOM delay: with the arena exhausted but deferred objects pending, an
// allocation waits for the grace period and then succeeds (lines 31-32).
func TestOOMDelayReclaimsDeferred(t *testing.T) {
	cfg := alloctest.DefaultStackConfig()
	cfg.Pages = 4 // one slab cache can use at most 4 slabs
	s := alloctest.NewStack(t, cfg, build)
	ccfg := alloctest.TestCacheConfig("oomdelay")
	c := s.Alloc.NewCache(ccfg)

	// Exhaust the arena: 4 pages × 16 objects.
	var refs []slabcore.Ref
	for i := 0; i < 64; i++ {
		r, err := c.Malloc(0)
		if err != nil {
			t.Fatalf("allocation %d failed: %v", i, err)
		}
		refs = append(refs, r)
	}
	// Defer-free half of the objects; the arena is still fully
	// committed, but after a grace period those objects are reusable.
	// A reader on CPU 1 holds the grace period open until Malloc is
	// inside the OOM path, so the premise — no deferred object has
	// elapsed when the allocation runs out of pages — holds however
	// fast the engine is.
	release := holdGracePeriod(s)
	for _, r := range refs[:32] {
		c.FreeDeferred(0, r)
	}
	type result struct {
		r   slabcore.Ref
		err error
	}
	done := make(chan result, 1)
	go func() {
		r, err := c.Malloc(0)
		done <- result{r, err}
	}()
	for c.Counters().Snapshot().GPWaits == 0 && len(done) == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	release()
	res := <-done
	r, err := res.r, res.err
	if err != nil {
		t.Fatalf("allocation with pending deferred objects failed: %v", err)
	}
	if got := c.Counters().Snapshot().GPWaits; got == 0 {
		t.Fatal("allocation succeeded without recording a grace-period wait")
	}
	c.Free(0, r)
	for _, x := range refs[32:] {
		c.Free(0, x)
	}
	c.Drain()
}

// holdGracePeriod puts CPU 1 in a read-side critical section, so no
// grace period can complete until the returned release runs.
func holdGracePeriod(s *alloctest.Stack) (release func()) {
	s.RCU.ExitIdle(1)
	s.RCU.ReadLock(1)
	return func() {
		s.RCU.ReadUnlock(1)
		s.RCU.QuiescentState(1)
		s.RCU.EnterIdle(1)
	}
}

// Without OOM delay, the same situation fails immediately.
func TestOOMDelayDisabled(t *testing.T) {
	cfg := alloctest.DefaultStackConfig()
	cfg.Pages = 4
	s := alloctest.NewStack(t, cfg, buildWith(core.Options{DisableOOMDelay: true}))
	c := s.Alloc.NewCache(alloctest.TestCacheConfig("nodelay"))

	// Block grace periods entirely; then even deferred objects can't
	// save the allocation.
	s.RCU.ExitIdle(1)
	s.RCU.ReadLock(1)
	defer func() {
		s.RCU.ReadUnlock(1)
		s.RCU.QuiescentState(1)
		s.RCU.EnterIdle(1)
	}()

	var refs []slabcore.Ref
	for {
		r, err := c.Malloc(0)
		if err != nil {
			break
		}
		refs = append(refs, r)
	}
	for _, r := range refs[:len(refs)/2] {
		c.FreeDeferred(0, r)
	}
	if _, err := c.Malloc(0); !errors.Is(err, pagealloc.ErrOutOfMemory) {
		t.Fatalf("expected immediate OOM, got %v", err)
	}
}

// A stalled grace period must not hang the OOM-delay path: with
// readers blocking every grace period and deferred objects pending,
// Malloc's bounded waits time out, the timeouts are counted, and the
// allocation degrades to ErrOutOfMemory.
func TestOOMDelayBoundedWhenGPStalled(t *testing.T) {
	cfg := alloctest.DefaultStackConfig()
	cfg.Pages = 4
	s := alloctest.NewStack(t, cfg, buildWith(core.Options{
		OOMDelayWait:    2 * time.Millisecond,
		OOMDelayRetries: 3,
	}))
	c := s.Alloc.NewCache(alloctest.TestCacheConfig("stalledgp"))

	// Stall every grace period: CPU 1 sits in a read-side critical
	// section for the whole test.
	s.RCU.ExitIdle(1)
	s.RCU.ReadLock(1)
	defer func() {
		s.RCU.ReadUnlock(1)
		s.RCU.QuiescentState(1)
		s.RCU.EnterIdle(1)
	}()

	var refs []slabcore.Ref
	for {
		r, err := c.Malloc(0)
		if err != nil {
			break
		}
		refs = append(refs, r)
	}
	for _, r := range refs[:len(refs)/2] {
		c.FreeDeferred(0, r)
	}

	type result struct {
		err error
	}
	done := make(chan result, 1)
	go func() {
		_, err := c.Malloc(0)
		done <- result{err}
	}()
	select {
	case res := <-done:
		if !errors.Is(res.err, pagealloc.ErrOutOfMemory) {
			t.Fatalf("expected ErrOutOfMemory after bounded delay, got %v", res.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Malloc hung on a stalled grace period: OOM delay is unbounded")
	}
	snap := c.Counters().Snapshot()
	if snap.OOMDelayTimeouts < 3 {
		t.Fatalf("OOMDelayTimeouts = %d, want >= 3 (retries exhausted)", snap.OOMDelayTimeouts)
	}
	if snap.OOMs == 0 {
		t.Fatal("degraded allocation did not count an OOM")
	}
}

// The oom_delay_expire fault point forces the same degradation without
// stalling the engine, pinned to a seed so it replays.
func TestOOMDelayExpireFaultInjection(t *testing.T) {
	inj := fault.Enable(fault.Config{Seed: 7, Rules: map[fault.Point]fault.Rule{
		fault.OOMDelayExpire: {Rate: 1},
	}})
	defer fault.Disable()

	cfg := alloctest.DefaultStackConfig()
	cfg.Pages = 4
	s := alloctest.NewStack(t, cfg, buildWith(core.Options{
		OOMDelayWait:    time.Millisecond,
		OOMDelayRetries: 2,
	}))
	c := s.Alloc.NewCache(alloctest.TestCacheConfig("oomexpire"))

	var refs []slabcore.Ref
	for {
		r, err := c.Malloc(0)
		if err != nil {
			break
		}
		refs = append(refs, r)
	}
	// Hold the grace period open for the whole allocation: the forced
	// expiries are the only way out of the OOM path, so a grace period
	// elapsing between retries must not hand Malloc a merged object.
	release := holdGracePeriod(s)
	for _, r := range refs[:len(refs)/2] {
		c.FreeDeferred(0, r)
	}
	_, err := c.Malloc(0)
	release()
	if !errors.Is(err, pagealloc.ErrOutOfMemory) {
		t.Fatalf("expected forced OOM, got %v", err)
	}
	if got := c.Counters().Snapshot().OOMDelayTimeouts; got < 2 {
		t.Fatalf("OOMDelayTimeouts = %d, want >= 2", got)
	}
	if inj.Fired(fault.OOMDelayExpire) < 2 {
		t.Fatalf("fault point fired %d times, want >= 2", inj.Fired(fault.OOMDelayExpire))
	}
}

// Pre-flush: overflowing object+latent counts schedules idle work that
// moves latent objects to latent slabs.
func TestPreflushMovesLatentToSlabs(t *testing.T) {
	s := alloctest.NewStack(t, alloctest.DefaultStackConfig(), build)
	cfg := alloctest.TestCacheConfig("preflush")
	a := s.Alloc.(*core.Allocator)
	c := a.NewCache(cfg).(*core.Cache)

	// Keep grace periods blocked so merging can't relieve the pressure
	// and pre-flush must do the work.
	s.RCU.ExitIdle(1)
	s.RCU.ReadLock(1)

	var refs []slabcore.Ref
	for i := 0; i < cfg.CacheSize; i++ {
		r, err := c.Malloc(0)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, r)
	}
	// Fill the object cache via plain frees, then defer-free to push
	// object+latent over the limit.
	var more []slabcore.Ref
	for i := 0; i < cfg.CacheSize; i++ {
		r, err := c.Malloc(0)
		if err != nil {
			t.Fatal(err)
		}
		more = append(more, r)
	}
	for _, r := range more {
		c.Free(0, r)
	}
	for _, r := range refs {
		c.FreeDeferred(0, r)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Counters().PreFlushes.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("pre-flush never ran")
		}
		time.Sleep(100 * time.Microsecond)
	}

	s.RCU.ReadUnlock(1)
	s.RCU.QuiescentState(1)
	s.RCU.EnterIdle(1)
	c.Drain()
}

// Disabling pre-flush keeps the idle path quiet.
func TestPreflushDisabled(t *testing.T) {
	s := alloctest.NewStack(t, alloctest.DefaultStackConfig(), buildWith(core.Options{DisablePreFlush: true}))
	c := s.Alloc.NewCache(alloctest.TestCacheConfig("nopre"))
	var refs []slabcore.Ref
	for i := 0; i < 64; i++ {
		r, err := c.Malloc(0)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, r)
	}
	for _, r := range refs {
		c.FreeDeferred(0, r)
	}
	time.Sleep(5 * time.Millisecond)
	if got := c.Counters().PreFlushes.Load(); got != 0 {
		t.Fatalf("PreFlushes = %d with pre-flush disabled", got)
	}
	c.Drain()
}

// Slab pre-movement: defer-freeing every object of a full slab moves it
// to the free list before the grace period ends (PredictedList), and its
// pages are only reclaimed after the grace period.
func TestPreMoveToFreeListAndSafeShrink(t *testing.T) {
	s := alloctest.NewStack(t, alloctest.DefaultStackConfig(), build)
	cfg := alloctest.TestCacheConfig("premove")
	cfg.CacheSize = 4
	a := s.Alloc.(*core.Allocator)
	c := a.NewCache(cfg).(*core.Cache)

	s.RCU.ExitIdle(1)
	s.RCU.ReadLock(1)

	// Allocate four slabs' worth so several slabs go full.
	var refs []slabcore.Ref
	for i := 0; i < 64; i++ {
		r, err := c.Malloc(0)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, r)
	}
	used := s.Arena.UsedPages()
	// Defer-free everything: latent cache takes 4, the rest spill to
	// latent slabs; fully-latent slabs pre-move to the free list but
	// their pages must NOT return to the arena yet.
	for _, r := range refs {
		c.FreeDeferred(0, r)
	}
	if got := c.Counters().Snapshot().PreMoves; got == 0 {
		t.Fatal("no pre-movements recorded")
	}
	if got := s.Arena.UsedPages(); got != used {
		t.Fatalf("pages reclaimed while grace period blocked: %d -> %d", used, got)
	}

	s.RCU.ReadUnlock(1)
	s.RCU.QuiescentState(1)
	s.RCU.EnterIdle(1)
	c.Drain()
	if got := s.Arena.UsedPages(); got != 0 {
		t.Fatalf("pages not reclaimed after drain: %d", got)
	}
}

// Deferred-aware slab selection (Figure 5): refill prefers the slab
// whose live objects are NOT mostly deferred, letting the deferred slab
// drain fully.
func TestSlabSelectionPrefersLiveSlabs(t *testing.T) {
	s := alloctest.NewStack(t, alloctest.DefaultStackConfig(), build)
	cfg := alloctest.TestCacheConfig("select")
	cfg.CacheSize = 2
	a := s.Alloc.(*core.Allocator)
	c := a.NewCache(cfg).(*core.Cache)

	s.RCU.ExitIdle(1)
	s.RCU.ReadLock(1)
	defer func() {
		s.RCU.ReadUnlock(1)
		s.RCU.QuiescentState(1)
		s.RCU.EnterIdle(1)
		c.Drain()
	}()

	// Build two partial slabs, A and B (16 objects each): allocate 32,
	// then free most of each, keeping 4 live in each.
	var refs []slabcore.Ref
	for i := 0; i < 32; i++ {
		r, err := c.Malloc(0)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, r)
	}
	slabA, slabB := refs[0].Slab, refs[16].Slab
	if slabA == slabB {
		t.Fatal("test setup: expected two distinct slabs")
	}
	for _, r := range refs {
		if r.Idx >= 4 {
			c.Free(0, r)
		}
	}
	// Defer-free B's four live objects: two fill the latent cache
	// (CacheSize=2), two spill into B's latent slab, making B "mostly
	// deferred" — Figure 5's slab B, about to be entirely free.
	for _, r := range refs {
		if r.Slab == slabB && r.Idx < 4 {
			c.FreeDeferred(0, r)
		}
	}
	// Refilled allocations (non-cache-hits) must come from A, not B.
	// Cache hits may legitimately return B objects that were sitting in
	// the per-CPU object cache from the frees above; skip those.
	var got []slabcore.Ref
	checked := 0
	for i := 0; i < 24 && checked < 8; i++ {
		before := c.Counters().Snapshot()
		r, err := c.Malloc(0)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, r)
		d := c.Counters().Snapshot().Sub(before)
		if d.CacheHits == 1 {
			continue // served from object cache remnants
		}
		checked++
		if r.Slab == slabB {
			t.Fatalf("refill %d came from the draining slab B", checked)
		}
	}
	if checked == 0 {
		t.Fatal("no refilled allocations observed")
	}
	for _, r := range got {
		c.Free(0, r)
	}
	for _, r := range refs {
		if r.Slab == slabA && r.Idx < 4 {
			c.Free(0, r)
		}
	}
}

// Prudence needs no RCU callbacks at all: the engine's callback counters
// stay at zero under a pure Prudence workload.
func TestNoRCUCallbacksUsed(t *testing.T) {
	s := alloctest.NewStack(t, alloctest.DefaultStackConfig(), build)
	c := s.Alloc.NewCache(alloctest.TestCacheConfig("nocb"))
	for i := 0; i < 500; i++ {
		r, err := c.Malloc(0)
		if err != nil {
			t.Fatal(err)
		}
		c.FreeDeferred(0, r)
	}
	c.Drain()
	if st := s.RCU.Stats(); st.CallbacksQueued != 0 {
		t.Fatalf("Prudence queued %d RCU callbacks", st.CallbacksQueued)
	}
}

// Tracing: an attached ring observes the allocator's refill and
// grace-period-wait events.
func TestTraceRingObservesEvents(t *testing.T) {
	s := alloctest.NewStack(t, alloctest.DefaultStackConfig(), build)
	a := s.Alloc.(*core.Allocator)
	c := a.NewCache(alloctest.TestCacheConfig("traced")).(*core.Cache)
	ring := trace.NewRing(256)
	c.SetTrace(ring)
	var refs []slabcore.Ref
	for i := 0; i < 64; i++ {
		r, err := c.Malloc(0)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, r)
	}
	counts := ring.CountByKind()
	if counts[trace.KindRefill] == 0 {
		t.Fatalf("no refill events traced: %v", counts)
	}
	for _, r := range refs {
		c.Free(0, r)
	}
	c.SetTrace(nil) // detach: no more events
	before := ring.Len()
	r, _ := c.Malloc(0)
	c.Free(0, r)
	if ring.Len() != before {
		t.Fatal("detached ring still recording")
	}
	c.Drain()
}

// The §6 prediction extension changes overflow flush sizing with the
// observed immediate-path traffic mix.
func TestPredictionAdaptsFlushSize(t *testing.T) {
	run := func(enable bool, allocHeavy bool) uint64 {
		opts := core.Options{EnablePrediction: enable}
		s := alloctest.NewStack(t, alloctest.DefaultStackConfig(), buildWith(opts))
		cfg := alloctest.TestCacheConfig("pred")
		c := s.Alloc.NewCache(cfg)
		// Warm a pool.
		var pool []slabcore.Ref
		for i := 0; i < 64; i++ {
			r, err := c.Malloc(0)
			if err != nil {
				t.Fatal(err)
			}
			pool = append(pool, r)
		}
		if allocHeavy {
			// Alloc-heavy traffic: each round allocates 3, frees 1.
			for i := 0; i < 200; i++ {
				r, err := c.Malloc(0)
				if err != nil {
					t.Fatal(err)
				}
				pool = append(pool, r)
				if i%3 == 0 && len(pool) > 0 {
					c.Free(0, pool[0])
					pool = pool[1:]
				}
			}
		}
		// Teardown burst: free everything (forces overflow flushes).
		for _, r := range pool {
			c.Free(0, r)
		}
		flushes := c.Counters().Snapshot().Flushes
		c.Drain()
		return flushes
	}
	// With prediction on, an alloc-heavy prelude keeps flushes small, so
	// the later burst needs MORE flush operations than the
	// teardown-dominated baseline where each flush moves 3/4 of a cache.
	_ = run(true, true)  // exercise the alloc-heavy branch
	_ = run(true, false) // exercise the teardown branch
	offFlushes := run(false, false)
	if offFlushes == 0 {
		t.Fatal("teardown produced no flushes at all")
	}
	// Behavioural check: prediction on with pure teardown traffic flushes
	// in larger chunks, so it needs at most as many flush operations.
	onFlushes := run(true, false)
	if onFlushes > offFlushes {
		t.Errorf("teardown with prediction used %d flushes, baseline %d (larger chunks expected)", onFlushes, offFlushes)
	}
}
