// Package nebr implements a DEBRA+-style neutralizing epoch-based
// reclamation backend (Brown, "Reclaiming memory for lock-free data
// structures: there has to be a better way" — arXiv:1712.01044) behind
// the canonical internal/sync surface.
//
// Plain EBR (internal/ebr) has one famous weakness: a single reader
// stalled inside a critical section pins its entry epoch forever, the
// global epoch can never advance past it, and reclamation stops
// system-wide — unbounded garbage from one bad thread. DEBRA+ repairs
// this with neutralization: when the epoch advance has been blocked
// longer than a bound, the advancer sends the straggler a signal whose
// handler forcibly exits the reader's critical section; the reader
// discovers the neutralization and restarts its operation.
//
// This package reproduces that design on the simulated machine:
//
//   - Epochs, pinning and cookies work exactly as in internal/ebr
//     (cookie = epoch+2; safe epoch = min over pinned CPUs, which the
//     advance protocol keeps within one of the global epoch).
//   - Retired objects live in per-CPU limbo bags stamped with their
//     cookie and drain once the epoch passes it.
//   - When stragglers block an advance for longer than NeutralizeAfter,
//     the advancer delivers a vcpu interrupt (the signal analogue) whose
//     handler CASes the straggler's pin away and marks the CPU
//     neutralized. The reader's next outermost Exit (or Neutralized
//     poll) observes the mark; by DEBRA+'s contract it must restart
//     rather than trust anything it read after the neutralization.
//   - A delivered-but-lost signal (the nebr_neutralize_lost fault
//     point) leaves the straggler pinned; the advancer simply finds it
//     again on the next pass and retries — degraded progress, never
//     unsafety.
package nebr

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"prudence/internal/fault"
	"prudence/internal/metrics"
	"prudence/internal/stats"
	gsync "prudence/internal/sync"
	"prudence/internal/vcpu"
)

// Options configures the neutralizing epoch engine.
type Options struct {
	// AdvanceInterval is the minimum gap between epoch advances
	// (default 200µs). Two advances make one grace period.
	AdvanceInterval time.Duration
	// PollInterval is how often the advancer re-checks pinned CPUs
	// (default 20µs).
	PollInterval time.Duration
	// NeutralizeAfter is how long an advance may stay blocked on
	// straggler CPUs before they are neutralized (default 10ms — two
	// orders of magnitude above a healthy critical section, so only
	// genuinely stalled readers are ever restarted).
	NeutralizeAfter time.Duration
	// RetireBatch bounds how many retired objects the limbo drainer
	// invokes per burst (default 32); RetireDelay is the pause between
	// bursts (default 0).
	RetireBatch int
	RetireDelay time.Duration
	// RetireExpeditedBatch and RetireQhimark tune the shared retire
	// queue's pressure scaling (see sync.QueueOptions; zero = defaults
	// derived from RetireBatch, RetireQhimark < 0 disables escalation).
	RetireExpeditedBatch int
	RetireQhimark        int
}

func (o Options) withDefaults() Options {
	if o.AdvanceInterval <= 0 {
		o.AdvanceInterval = 200 * time.Microsecond
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 20 * time.Microsecond
	}
	if o.NeutralizeAfter <= 0 {
		o.NeutralizeAfter = 10 * time.Millisecond
	}
	return o
}

func init() {
	gsync.Register("nebr", func(m *vcpu.Machine, o gsync.Options) gsync.Backend {
		return New(m, Options{
			AdvanceInterval:      o.GPInterval / 2,
			PollInterval:         o.PollInterval,
			RetireBatch:          o.RetireBatch,
			RetireDelay:          o.RetireDelay,
			RetireExpeditedBatch: o.ExpeditedBlimit,
			RetireQhimark:        o.Qhimark,
		})
	})
}

type cpuState struct {
	// pinned is 0 when outside any critical section; when inside, it
	// holds 1 + the global epoch observed at entry. The advancer's
	// neutralize handler may CAS it to 0 from under a stalled reader.
	pinned  atomic.Uint64
	nesting int32 // owner-goroutine only
	// neutralized is set by the interrupt handler when the CPU's pin
	// was forcibly cleared; the owner consumes it at the outermost Exit
	// or through Neutralized.
	neutralized atomic.Bool
	// qsCalls counts QuiescentState calls so the hot path can donate
	// its timeslice periodically (see QuiescentState).
	qsCalls atomic.Uint32
}

// NEBR is the neutralizing epoch engine.
type NEBR struct {
	machine *vcpu.Machine
	opts    Options
	percpu  []*cpuState

	epoch atomic.Uint64 // global epoch counter
	// demand holds plain demand (NeedGP) and expedited demand
	// (ExpediteGP: the advancer skips its pacing gap). Both are cleared
	// on even advances.
	demand            *gsync.Demand
	expeditedAdvances atomic.Uint64
	gpHist            stats.Histogram // latency of each two-advance grace period
	queue             *gsync.RetireQueue

	neutralizations atomic.Uint64 // interrupts that cleared a pin
	signalsLost     atomic.Uint64 // neutralize signals the fault layer dropped
	restarts        atomic.Uint64 // neutralizations consumed by readers

	// gpMu serializes grace-period waiters with the advancer's
	// broadcast, exactly as in internal/ebr.
	//
	//prudence:lockorder 52
	gpMu   sync.Mutex
	gpCond *sync.Cond

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// New creates and starts a neutralizing epoch engine for machine. The
// engine installs itself as each CPU's interrupt handler.
func New(machine *vcpu.Machine, opts Options) *NEBR {
	e := &NEBR{
		machine: machine,
		opts:    opts.withDefaults(),
		percpu:  make([]*cpuState, machine.NumCPU()),
		demand:  gsync.NewDemand(),
		stop:    make(chan struct{}),
	}
	e.gpCond = sync.NewCond(&e.gpMu)
	for i := range e.percpu {
		e.percpu[i] = &cpuState{}
		cpu := i
		machine.SetInterruptOn(cpu, func() { e.neutralize(cpu) })
	}
	e.wg.Add(1)
	go e.advancer()
	e.queue = gsync.NewRetireQueue(e, machine.NumCPU(), gsync.QueueOptions{
		Batch:          e.opts.RetireBatch,
		ExpeditedBatch: e.opts.RetireExpeditedBatch,
		Qhimark:        e.opts.RetireQhimark,
		Delay:          e.opts.RetireDelay,
		Poll:           e.opts.PollInterval,
	})
	return e
}

// Stop shuts the engine down and uninstalls its interrupt handlers.
func (e *NEBR) Stop() {
	e.stopOnce.Do(func() {
		close(e.stop)
		e.wg.Wait()
		e.queue.Stop()
		for i := range e.percpu {
			e.machine.SetInterruptOn(i, nil)
		}
		e.gpMu.Lock()
		e.gpCond.Broadcast()
		e.gpMu.Unlock()
	})
}

// Stopped reports whether Stop has begun.
func (e *NEBR) Stopped() bool {
	select {
	case <-e.stop:
		return true
	default:
		return false
	}
}

func (e *NEBR) cpu(id int) *cpuState {
	if id < 0 || id >= len(e.percpu) {
		panic(fmt.Sprintf("nebr: CPU id %d out of range [0,%d)", id, len(e.percpu)))
	}
	return e.percpu[id]
}

// Epoch returns the current global epoch.
func (e *NEBR) Epoch() uint64 { return e.epoch.Load() }

// SafeEpoch returns DEBRA's reclamation frontier: the minimum over the
// global epoch and every pinned CPU's entry epoch. The advance protocol
// (wait-or-neutralize) keeps it within one of the global epoch; limbo
// entries whose cookie it has passed are reclaimable.
func (e *NEBR) SafeEpoch() uint64 {
	min := e.epoch.Load()
	for _, cs := range e.percpu {
		if p := cs.pinned.Load(); p != 0 && p-1 < min {
			min = p - 1
		}
	}
	return min
}

// ReadLock begins a read-side critical section on cpu, pinning the
// epoch it observes (pin-then-recheck as in internal/ebr). Sections may
// nest. Entering clears any stale neutralization mark: the restart, if
// one was due, is this very re-entry.
func (e *NEBR) ReadLock(cpu int) {
	cs := e.cpu(cpu)
	if cs.nesting == 0 {
		if cs.neutralized.Swap(false) {
			e.restarts.Add(1)
		}
		for {
			cur := e.epoch.Load()
			cs.pinned.Store(1 + cur)
			if e.epoch.Load() == cur {
				break
			}
		}
	}
	cs.nesting++
}

// ReadUnlock ends a read-side critical section on cpu. If the section
// was neutralized mid-flight, the pin is already gone; the mark is left
// for Neutralized (or the next ReadLock) so the reader can learn its
// reads after the neutralization point were unprotected.
func (e *NEBR) ReadUnlock(cpu int) {
	cs := e.cpu(cpu)
	cs.nesting--
	if cs.nesting < 0 {
		panic("nebr: unbalanced ReadUnlock")
	}
	if cs.nesting == 0 {
		// CAS, not Store: racing with the neutralize handler, exactly
		// one of us clears the pin, and a pin the handler cleared must
		// not be resurrected here.
		p := cs.pinned.Load()
		if p != 0 {
			cs.pinned.CompareAndSwap(p, 0)
		}
	}
}

// Neutralized reports and consumes cpu's neutralization mark. A
// DEBRA+-correct reader polls it after finishing a critical section (or
// a lookup built on one) and restarts the operation when it reports
// true, because protection lapsed at some point after entry.
func (e *NEBR) Neutralized(cpu int) bool {
	if e.cpu(cpu).neutralized.Swap(false) {
		e.restarts.Add(1)
		return true
	}
	return false
}

// Held reports whether cpu is inside a critical section.
func (e *NEBR) Held(cpu int) bool { return e.cpu(cpu).nesting > 0 }

// neutralize is the interrupt handler: the signal analogue that knocks
// a straggler's pin loose. It runs in the advancer's goroutine and
// touches only atomics, as a real signal handler must.
func (e *NEBR) neutralize(cpu int) {
	cs := e.cpu(cpu)
	p := cs.pinned.Load()
	if p == 0 {
		return
	}
	// CAS so a racing fresh re-pin (reader exited and re-entered at the
	// current epoch) is never clobbered — it is not a straggler.
	if p-1 < e.epoch.Load() && cs.pinned.CompareAndSwap(p, 0) {
		cs.neutralized.Store(true)
		e.neutralizations.Add(1)
	}
}

// Neutralizations returns how many pins the engine has forcibly
// cleared.
func (e *NEBR) Neutralizations() uint64 { return e.neutralizations.Load() }

// --- grace-period state (cookies in epochs, as in internal/ebr) ---

// Snapshot returns a grace-period cookie (epoch+2: readers pinned at
// the current epoch survive at most one advance).
func (e *NEBR) Snapshot() gsync.Cookie {
	return gsync.Cookie(e.epoch.Load() + 2)
}

// Elapsed reports whether the cookie's grace period has passed. The
// global epoch alone decides: the advance protocol guarantees no CPU
// stays pinned below it — stragglers are waited out or neutralized
// before every advance.
func (e *NEBR) Elapsed(c gsync.Cookie) bool {
	return e.epoch.Load() >= uint64(c)
}

// NeedGP signals demand for epoch advances.
func (e *NEBR) NeedGP() { e.demand.Need() }

// ExpediteGP raises expedited demand: the next grace period is driven
// with the pacing gap between advances skipped (stragglers are still
// waited out or neutralized — expediting never weakens the safety
// protocol). One-shot: consumed when the advance pair it hastened
// completes.
func (e *NEBR) ExpediteGP() { e.demand.Expedite() }

// GPsCompleted returns completed grace periods (epoch advances halved).
func (e *NEBR) GPsCompleted() uint64 { return e.epoch.Load() / 2 }

// ExpeditedAdvances returns how many epoch advances skipped the pacing
// gap on expedited demand.
func (e *NEBR) ExpeditedAdvances() uint64 { return e.expeditedAdvances.Load() }

// WaitElapsedOn blocks until cookie c elapses.
func (e *NEBR) WaitElapsedOn(cpu int, c gsync.Cookie) bool {
	if e.cpu(cpu).nesting > 0 {
		panic("nebr: WaitElapsedOn inside critical section")
	}
	return e.waitElapsed(c)
}

// WaitElapsedOnTimeout is WaitElapsedOn with a deadline, returning
// false once d passes (or the engine stops) without the cookie
// elapsing. With neutralization armed the wait is doubly bounded: even
// a stalled reader only delays the advance by NeutralizeAfter.
func (e *NEBR) WaitElapsedOnTimeout(cpu int, c gsync.Cookie, d time.Duration) bool {
	if e.cpu(cpu).nesting > 0 {
		panic("nebr: WaitElapsedOnTimeout inside critical section")
	}
	deadline := time.Now().Add(d)
	for !e.Elapsed(c) {
		if time.Now().After(deadline) {
			return e.Elapsed(c)
		}
		// A deadline-bound waiter is starved by definition: expedite.
		e.ExpediteGP()
		select {
		case <-e.stop:
			return e.Elapsed(c)
		case <-time.After(e.opts.PollInterval):
		}
	}
	return true
}

// Synchronize blocks until a full grace period has elapsed.
func (e *NEBR) Synchronize() { e.waitElapsed(e.Snapshot()) }

// SynchronizeOn is Synchronize; the unpinned calling CPU needs no
// special treatment.
func (e *NEBR) SynchronizeOn(cpu int) {
	if e.cpu(cpu).nesting > 0 {
		panic("nebr: SynchronizeOn inside critical section")
	}
	e.Synchronize()
}

func (e *NEBR) waitElapsed(c gsync.Cookie) bool {
	if e.Elapsed(c) {
		return true
	}
	e.ExpediteGP()
	e.gpMu.Lock()
	defer e.gpMu.Unlock()
	for !e.Elapsed(c) {
		select {
		case <-e.stop:
			return e.Elapsed(c)
		default:
		}
		// Re-raise demand on every pass (see internal/ebr: demand is
		// cleared every second advance and a cookie snapshotted at an
		// odd epoch outlives the pair that cleared it). A blocked
		// synchronous waiter is latency-sensitive, so the demand is
		// expedited.
		e.ExpediteGP()
		e.gpCond.Wait()
	}
	return true
}

// Retire schedules fn into cpu's limbo bag, stamped with the current
// cookie; the drainer invokes it once two epoch advances have passed.
func (e *NEBR) Retire(cpu int, fn func()) { e.queue.Retire(cpu, fn) }

// RetireObject is the non-closure Retire variant; the queue carries
// the (reclaimer, obj, idx) payload in the limbo record itself, so the
// steady-state retire path allocates nothing.
func (e *NEBR) RetireObject(cpu int, r gsync.Reclaimer, obj any, idx uint64) {
	e.queue.RetireObject(cpu, r, obj, idx)
}

// Barrier blocks until every retirement accepted before the call has
// run (or the engine stopped).
func (e *NEBR) Barrier() { e.queue.Barrier() }

// SetPressure expedites limbo draining under memory pressure.
func (e *NEBR) SetPressure(under bool) { e.queue.SetPressure(under) }

// RetireBacklog returns the number of retired objects awaiting their
// epoch pair.
func (e *NEBR) RetireBacklog() int64 { return e.queue.Pending() }

// advancer advances the global epoch on demand. Unlike internal/ebr's
// advancer, its straggler wait is bounded: past NeutralizeAfter it
// neutralizes every CPU still pinned below the current epoch and
// proceeds. The advance is therefore delayed by at most the bound plus
// signal delivery — a stalled reader cannot block reclamation forever.
func (e *NEBR) advancer() {
	defer e.wg.Done()
	timer := time.NewTimer(e.opts.AdvanceInterval)
	defer timer.Stop()
	last := time.Now()
	pairStart := last
	for {
		if !e.demand.Needed() {
			select {
			case <-e.stop:
				return
			case <-e.demand.Kicked():
			case <-timer.C:
				timer.Reset(e.opts.AdvanceInterval)
			}
			continue
		}
		// Pace the advance — unless expedited demand is pending, in
		// which case the gap is skipped (safety rests on the straggler
		// wait below, never on this pacing).
		expedited := false
		for {
			if e.demand.Expedited() {
				expedited = true
				break
			}
			gap := time.Since(last)
			if gap >= e.opts.AdvanceInterval {
				break
			}
			select {
			case <-e.stop:
				return
			case <-e.demand.Kicked():
				// Re-check: the kick may carry expedited demand.
			case <-time.After(e.opts.AdvanceInterval - gap):
			}
		}
		if expedited {
			e.expeditedAdvances.Add(1)
		}
		cur := e.epoch.Load()
		// Wait until no CPU is pinned at an epoch older than cur,
		// neutralizing stragglers once the bound expires.
		waitStart := time.Now()
		for {
			stragglers := false
			for cpu, cs := range e.percpu {
				p := cs.pinned.Load()
				if p == 0 || p-1 >= cur {
					continue
				}
				if time.Since(waitStart) >= e.opts.NeutralizeAfter {
					// Chaos: the neutralize signal is lost in
					// delivery; the straggler stays pinned and the
					// next pass retries. Progress degrades, safety
					// holds.
					//prudence:fault_point
					if fault.Fire(fault.NeutralizeLost) {
						e.signalsLost.Add(1)
					} else {
						e.machine.Interrupt(cpu)
					}
				}
				if cs.pinned.Load() != 0 {
					stragglers = true
				}
			}
			if !stragglers {
				break
			}
			select {
			case <-e.stop:
				return
			case <-time.After(e.opts.PollInterval):
			}
		}
		// Chaos: stall the advance after observing quiescence but
		// before publishing the new epoch (gp_stall, as in rcu/ebr).
		//prudence:fault_point
		if d := fault.FireDelay(fault.GPStall); d > 0 {
			select {
			case <-e.stop:
				return
			case <-time.After(d):
			}
		}
		e.epoch.Store(cur + 1)
		last = time.Now()
		if (cur+1)%2 == 0 {
			e.gpHist.Observe(last.Sub(pairStart))
			e.demand.ClearNeed()
			e.demand.ClearExpedite()
		} else {
			pairStart = last
		}
		e.gpMu.Lock()
		e.gpCond.Broadcast()
		e.gpMu.Unlock()
	}
}

// QuiescentState does not affect epoch tracking (pinning detects reader
// completion), but it periodically donates the caller's timeslice so
// the advancer and drainer goroutines get scheduled even when every
// runnable vCPU spins through allocate/free at GOMAXPROCS=1 — the same
// scheduling donation internal/rcu makes, without which epoch advances
// happen only at preemption quanta and grace periods starve.
func (e *NEBR) QuiescentState(cpu int) {
	if e.cpu(cpu).qsCalls.Add(1)%32 == 0 {
		runtime.Gosched()
	}
}

// EnterIdle is a no-op: an idle CPU is simply one that is not pinned.
func (e *NEBR) EnterIdle(cpu int) {}

// ExitIdle is a no-op, mirroring EnterIdle.
func (e *NEBR) ExitIdle(cpu int) {}

// RegisterMetrics registers the engine's observability series, keeping
// the shared prudence_gp_* family names.
func (e *NEBR) RegisterMetrics(reg *metrics.Registry) {
	reg.CounterFunc("prudence_gp_completed_total", "Grace periods completed (epoch advances halved).",
		func() float64 { return float64(e.GPsCompleted()) })
	reg.RegisterHistogram("prudence_gp_duration_seconds",
		"Latency of one grace period (two epoch advances).", &e.gpHist)
	reg.GaugeFunc("prudence_nebr_epoch", "Current global epoch.",
		func() float64 { return float64(e.Epoch()) })
	reg.GaugeFunc("prudence_nebr_safe_epoch", "Reclamation frontier: min over the global epoch and pinned entry epochs.",
		func() float64 { return float64(e.SafeEpoch()) })
	reg.GaugeFunc("prudence_nebr_pinned_cpus", "CPUs currently pinning an epoch.",
		func() float64 {
			n := 0
			for _, cs := range e.percpu {
				if cs.pinned.Load() != 0 {
					n++
				}
			}
			return float64(n)
		})
	reg.CounterFunc("prudence_nebr_neutralizations_total", "Stalled readers forcibly unpinned by the neutralize signal.",
		func() float64 { return float64(e.neutralizations.Load()) })
	reg.CounterFunc("prudence_nebr_neutralize_lost_total", "Neutralize signals dropped by fault injection.",
		func() float64 { return float64(e.signalsLost.Load()) })
	reg.CounterFunc("prudence_nebr_restarts_total", "Neutralization marks consumed by readers (restart points).",
		func() float64 { return float64(e.restarts.Load()) })
	reg.GaugeFunc("prudence_nebr_retire_backlog", "Retired objects awaiting their epoch pair.",
		func() float64 { return float64(e.queue.Pending()) })
	reg.CounterFunc("prudence_sync_expedited_advances_total", "Epoch advances taken on the expedited path (pacing gap skipped on demand).",
		func() float64 { return float64(e.expeditedAdvances.Load()) })
	e.queue.RegisterMetrics(reg)
}
