package main

import (
	"fmt"
	"time"

	"prudence"
)

// allocDefer is the paper's Fig. 6 loop on every vCPU: Malloc a 512 B
// object, touch it, FreeDeferred it, report a quiescent state. One
// operation is one Malloc+FreeDeferred pair; one request is a round of
// roundPairs pairs.
type allocDefer struct {
	seed  uint64
	sys   *prudence.System
	cache *prudence.Cache
}

const (
	objectSize = 512
	roundPairs = 64
	// warmRounds per vCPU fill the per-CPU caches and the latent lists
	// before anything is timed.
	warmRounds = 2000
	// timedEvery: a traced phase times the calls of one pair in this
	// many.
	timedEvery = 8
)

func newAllocDefer(seed uint64) workload { return &allocDefer{seed: seed} }

func (a *allocDefer) setup() error {
	sys, err := prudence.New(stackConfig)
	if err != nil {
		return err
	}
	a.sys = sys
	a.cache = sys.NewCache("bench-512", objectSize)
	a.loop(0, warmRounds, nil)
	return nil
}

// callTimes are the traced per-call samples of one vCPU.
type callTimes struct{ malloc, free, qs samples }

// loop runs rounds on every vCPU until d has passed (or, with d == 0,
// for rounds rounds each). With traces non-nil it times the calls of
// every timedEvery-th pair.
func (a *allocDefer) loop(d time.Duration, rounds int, traces []callTimes) *phase {
	parts := make([]phase, vcpus)
	start := time.Now()
	deadline := start.Add(d)
	a.sys.RunOnAllCPUs(func(cpu int) {
		p := &parts[cpu]
		p.lat = make(samples, 0, 1<<17)
		// The seed picks the byte pattern each vCPU writes and reads back.
		pat := byte(a.seed>>(8*cpu)) | 1
		var ct *callTimes
		if traces != nil {
			ct = &traces[cpu]
		}
		for r := 0; d > 0 || r < rounds; r++ {
			t0 := time.Now()
			for i := 0; i < roundPairs; i++ {
				a.pair(cpu, pat, p, ct != nil && i%timedEvery == 0, ct)
			}
			t1 := time.Now()
			p.lat.add(t1.Sub(t0))
			p.peakUsed = max(p.peakUsed, a.sys.UsedBytes())
			if d > 0 && t1.After(deadline) {
				break
			}
		}
	})
	total := &phase{elapsed: time.Since(start)}
	for i := range parts {
		total.absorb(&parts[i])
	}
	return total
}

// pair runs one Malloc, touch, FreeDeferred, QuiescentState step.
func (a *allocDefer) pair(cpu int, pat byte, p *phase, timed bool, ct *callTimes) {
	p.attempted++
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	obj, err := a.cache.Malloc(cpu)
	if timed {
		ct.malloc.add(time.Since(t0))
	}
	if err != nil {
		p.fail("cpu %d: Malloc: %v", cpu, err)
		a.sys.QuiescentState(cpu)
		return
	}
	b := obj.Bytes()
	if len(b) != objectSize {
		p.fail("cpu %d: Malloc returned %d bytes, want %d", cpu, len(b), objectSize)
		a.sys.QuiescentState(cpu)
		return
	}
	b[0], b[objectSize-1] = pat, ^pat
	if b[0] != pat || b[objectSize-1] != ^pat {
		p.fail("cpu %d: object does not hold what was written", cpu)
	}
	if timed {
		t0 = time.Now()
	}
	a.cache.FreeDeferred(cpu, obj)
	if timed {
		t1 := time.Now()
		ct.free.add(t1.Sub(t0))
		t0 = t1
	}
	a.sys.QuiescentState(cpu)
	if timed {
		ct.qs.add(time.Since(t0))
	}
	p.ops++
}

func (a *allocDefer) run(d time.Duration) *phase { return a.loop(d, 0, nil) }

func (a *allocDefer) trace(d time.Duration, l *ledger) *phase {
	base := a.run(d / 2)
	traces := make([]callTimes, vcpus)
	before := a.cache.Stats()
	pr := startProbe(a.sys.GatherMetrics)
	tr := a.loop(d/2, 0, traces)
	cs := a.cache.Stats().Sub(before)
	pr.stop(l, tr.ops, &cs)

	var malloc, free, qs samples
	for _, t := range traces {
		malloc, free, qs = merge(malloc, t.malloc), merge(free, t.free), merge(qs, t.qs)
	}
	l.setPercentiles("core.malloc_p50_ns", "core.malloc_p99_ns", malloc)
	l.setPercentiles("core.free_deferred_p50_ns", "", free)
	l.setPercentiles("rcu.quiescent_state_p50_ns", "", qs)
	l.overhead(base, tr)
	base.absorb(tr)
	return base
}

// close drains the cache, checks every object came back, and stops the
// stack.
func (a *allocDefer) close() []string {
	var errs []string
	a.cache.Drain()
	if s := a.cache.Stats(); s.Allocs != s.Frees+s.DeferredFrees {
		errs = append(errs, fmt.Sprintf("alloc-defer: %d allocs but %d frees + %d deferred frees",
			s.Allocs, s.Frees, s.DeferredFrees))
	}
	a.sys.Close()
	return errs
}
