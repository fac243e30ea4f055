// Package ebr implements epoch-based reclamation (Fraser-style EBR,
// one of the memory reclamation schemes surveyed by Hart et al., the
// paper's [22]) as an alternative grace-period provider for Prudence.
//
// Where internal/rcu detects reader completion through context-switch
// quiescent states, EBR does it through epochs: each CPU entering a
// critical section pins the global epoch it observed; the global epoch
// may advance only when every pinned CPU has observed the current one.
// A deferred object is safe once the global epoch has advanced twice
// past its stamp — readers from the stamp's epoch can survive at most
// one advance.
//
// The package satisfies core.GracePeriods, demonstrating the paper's
// turnkey claim: Prudence runs unchanged over a completely different
// procrastination-based synchronization mechanism, with all added
// complexity confined to the allocator side.
package ebr

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

// Options configures the epoch engine.
type Options struct {
	// AdvanceInterval is the minimum gap between epoch advances
	// (default 200µs). Two advances make one grace period.
	AdvanceInterval time.Duration
	// PollInterval is how often the advancer re-checks pinned CPUs
	// (default 20µs).
	PollInterval time.Duration
	// RetireBatch bounds how many retired objects the limbo drainer
	// invokes per burst (default 32); RetireDelay is the pause between
	// bursts (default 0).
	RetireBatch int
	RetireDelay time.Duration
	// RetireExpeditedBatch and RetireQhimark are the limbo drainer's
	// pressure-scaling knobs (see sync.QueueOptions): the burst bound
	// under pressure/backlog, and the backlog past which batch limits
	// come off and the drainer raises expedited epoch demand.
	RetireExpeditedBatch int
	RetireQhimark        int
}

func init() {
	gsync.Register("ebr", func(m *vcpu.Machine, o gsync.Options) gsync.Backend {
		return New(m, Options{
			// Two epoch advances make one grace period, so the generic
			// grace-period interval halves into the advance interval.
			AdvanceInterval:      o.GPInterval / 2,
			PollInterval:         o.PollInterval,
			RetireBatch:          o.RetireBatch,
			RetireDelay:          o.RetireDelay,
			RetireExpeditedBatch: o.ExpeditedBlimit,
			RetireQhimark:        o.Qhimark,
		})
	})
}

func (o Options) withDefaults() Options {
	if o.AdvanceInterval <= 0 {
		o.AdvanceInterval = 200 * time.Microsecond
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 20 * time.Microsecond
	}
	return o
}

type cpuState struct {
	// pinned is 0 when outside any critical section; when inside, it
	// holds 1 + the global epoch observed at entry.
	pinned  atomic.Uint64
	nesting int32 // owner-goroutine only
	// qsCalls counts QuiescentState invocations for the periodic
	// scheduler yield (owner-goroutine only; atomic for the race
	// detector's benefit).
	qsCalls atomic.Uint32
}

// EBR is the epoch engine. Read-side sections are delimited with
// Enter/Exit; the engine exposes the same pollable grace-period state
// as internal/rcu (cookies in completed-grace-period units, where one
// grace period is two epoch advances).
type EBR struct {
	machine *vcpu.Machine
	opts    Options
	percpu  []*cpuState

	epoch atomic.Uint64 // global epoch counter
	// demand holds plain demand (NeedGP) and expedited demand
	// (ExpediteGP: skip the inter-advance pacing gap). Both are cleared
	// when the grace period (advance pair) they hastened completes.
	demand *gsync.Demand
	// expeditedAdvances counts epoch advances taken on the expedited
	// path (pacing gap skipped).
	expeditedAdvances atomic.Uint64
	gpHist            stats.Histogram // latency of each two-advance grace period
	queue             *gsync.RetireQueue

	gpMu   sync.Mutex
	gpCond *sync.Cond

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// New creates and starts an epoch engine for machine.
func New(machine *vcpu.Machine, opts Options) *EBR {
	e := &EBR{
		machine: machine,
		opts:    opts.withDefaults(),
		percpu:  make([]*cpuState, machine.NumCPU()),
		demand:  gsync.NewDemand(),
		stop:    make(chan struct{}),
	}
	e.gpCond = sync.NewCond(&e.gpMu)
	for i := range e.percpu {
		e.percpu[i] = &cpuState{}
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

// Stop shuts the engine down.
func (e *EBR) Stop() {
	e.stopOnce.Do(func() { close(e.stop) })
	e.wg.Wait()
	e.queue.Stop()
	e.gpMu.Lock()
	e.gpCond.Broadcast()
	e.gpMu.Unlock()
}

// Stopped reports whether Stop has begun.
func (e *EBR) Stopped() bool {
	select {
	case <-e.stop:
		return true
	default:
		return false
	}
}

func (e *EBR) cpu(id int) *cpuState {
	if id < 0 || id >= len(e.percpu) {
		panic(fmt.Sprintf("ebr: CPU id %d out of range [0,%d)", id, len(e.percpu)))
	}
	return e.percpu[id]
}

// Enter begins a read-side critical section on cpu, pinning the epoch
// it observes. Sections may nest.
func (e *EBR) Enter(cpu int) {
	cs := e.cpu(cpu)
	if cs.nesting == 0 {
		// Pin-then-recheck: the advancer may pass between our epoch
		// load and the pin store (it would have seen us unpinned). If
		// the epoch moved, re-pin at the new value — nothing has been
		// accessed yet, so observing the newer epoch is safe. Once the
		// epoch is stable across the pin, any later advance must see
		// the pin.
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

// Exit ends a read-side critical section on cpu.
func (e *EBR) Exit(cpu int) {
	cs := e.cpu(cpu)
	cs.nesting--
	if cs.nesting < 0 {
		panic("ebr: unbalanced Exit")
	}
	if cs.nesting == 0 {
		cs.pinned.Store(0)
	}
}

// Held reports whether cpu is inside a critical section.
func (e *EBR) Held(cpu int) bool { return e.cpu(cpu).nesting > 0 }

// Epoch returns the current global epoch.
func (e *EBR) Epoch() uint64 { return e.epoch.Load() }

// --- core.GracePeriods ---
//
// Cookies are expressed in epochs: a cookie c is elapsed once the
// global epoch is at least c. Snapshot returns now+2: readers pinned at
// the current epoch may survive one advance (the advance waits only for
// CPUs pinned at OLDER epochs), so two advances bound their lifetime.

// Snapshot returns a grace-period cookie.
func (e *EBR) Snapshot() gsync.Cookie {
	return gsync.Cookie(e.epoch.Load() + 2)
}

// Elapsed reports whether the cookie's grace period has passed.
func (e *EBR) Elapsed(c gsync.Cookie) bool {
	return e.epoch.Load() >= uint64(c)
}

// NeedGP signals demand for epoch advances.
func (e *EBR) NeedGP() { e.demand.Need() }

// ExpediteGP raises expedited demand: the advancer skips the
// inter-advance pacing gap for the next grace period (advance pair)
// instead of holding AdvanceInterval between advances. The demand
// survives a lost kick exactly as NeedGP's does — the advancer reads
// the flag on its timer fallback.
func (e *EBR) ExpediteGP() { e.demand.Expedite() }

// GPsCompleted returns completed grace periods (epoch advances halved,
// so once-per-GP gates fire at the paper's granularity).
func (e *EBR) GPsCompleted() uint64 { return e.epoch.Load() / 2 }

// ExpeditedAdvances returns how many epoch advances skipped the pacing
// gap on expedited demand.
func (e *EBR) ExpeditedAdvances() uint64 { return e.expeditedAdvances.Load() }

// WaitElapsedOn blocks until cookie c elapses. EBR readers cannot block
// (the caller is outside any critical section by contract), so the
// calling CPU needs no special quiescent treatment: its pinned flag is
// already clear.
func (e *EBR) WaitElapsedOn(cpu int, c gsync.Cookie) bool {
	if e.cpu(cpu).nesting > 0 {
		panic("ebr: WaitElapsedOn inside critical section")
	}
	return e.waitElapsed(c)
}

// WaitElapsedOnTimeout is WaitElapsedOn with a deadline: it returns
// true as soon as the cookie elapses, or false once d passes (or the
// engine stops) without it elapsing. Demand is re-raised on every poll
// for the same reason waitElapsed re-raises it — the advancer clears
// demand on even advances, and a cookie snapshotted at an odd epoch
// outlives the pair that cleared it.
func (e *EBR) WaitElapsedOnTimeout(cpu int, c gsync.Cookie, d time.Duration) bool {
	if e.cpu(cpu).nesting > 0 {
		panic("ebr: WaitElapsedOnTimeout inside critical section")
	}
	deadline := time.Now().Add(d)
	for !e.Elapsed(c) {
		if time.Now().After(deadline) {
			return e.Elapsed(c)
		}
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
func (e *EBR) Synchronize() {
	e.waitElapsed(e.Snapshot())
}

func (e *EBR) waitElapsed(c gsync.Cookie) bool {
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
		// Re-raise demand on every pass: the advancer clears it after
		// each full grace period (every second advance), and a cookie
		// snapshotted at an odd epoch outlives the pair that cleared
		// it — waiting without re-arming would sleep forever. A
		// blocked waiter is latency-sensitive, so the demand is
		// expedited. The broadcast that wakes us is sent under gpMu,
		// so no advance can slip between this ExpediteGP and the Wait
		// below.
		e.ExpediteGP()
		e.gpCond.Wait()
	}
	return true
}

// advancer is the epoch-advance goroutine: when there is demand, it
// advances the global epoch as soon as no CPU remains pinned at an
// older epoch. Plain demand is paced by AdvanceInterval; expedited
// demand (ExpediteGP) short-circuits the pacing sleep — a kick arriving
// mid-sleep re-checks the flag, so escalation takes effect immediately
// rather than after the timer runs out.
func (e *EBR) advancer() {
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
		// Wait until no CPU is pinned at an epoch older than cur.
		for {
			stragglers := false
			for _, cs := range e.percpu {
				if p := cs.pinned.Load(); p != 0 && p-1 < cur {
					stragglers = true
					break
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
		// Chaos: stall the advance after observing no stragglers but
		// before publishing the new epoch.
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
		// Demand is cleared only every second advance (a full grace
		// period); odd advances immediately continue. Expedited demand
		// is consumed with it: the grace period it hastened is done.
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

// RegisterMetrics registers the epoch engine's observability series. It
// exports the same prudence_gp_* family names as internal/rcu, so
// dashboards read identically over either grace-period provider.
func (e *EBR) RegisterMetrics(reg *metrics.Registry) {
	reg.CounterFunc("prudence_gp_completed_total", "Grace periods completed (epoch advances halved).",
		func() float64 { return float64(e.GPsCompleted()) })
	reg.RegisterHistogram("prudence_gp_duration_seconds",
		"Latency of one grace period (two epoch advances).", &e.gpHist)
	reg.CounterFunc("prudence_sync_expedited_advances_total", "Epoch advances taken on the expedited path (pacing gap skipped on demand).",
		func() float64 { return float64(e.expeditedAdvances.Load()) })
	e.queue.RegisterMetrics(reg)
	reg.GaugeFunc("prudence_ebr_epoch", "Current global epoch.",
		func() float64 { return float64(e.Epoch()) })
	reg.GaugeFunc("prudence_ebr_pinned_cpus", "CPUs currently pinning an epoch (inside a critical section).",
		func() float64 {
			n := 0
			for _, cs := range e.percpu {
				if cs.pinned.Load() != 0 {
					n++
				}
			}
			return float64(n)
		})
}

// ReadLock is an alias for Enter, letting the EBR engine satisfy the
// data structures' ReadSync interface directly.
func (e *EBR) ReadLock(cpu int) { e.Enter(cpu) }

// ReadUnlock is an alias for Exit.
func (e *EBR) ReadUnlock(cpu int) { e.Exit(cpu) }

// SynchronizeOn blocks until a grace period elapses; EBR needs no
// special quiescent treatment for the (unpinned) calling CPU.
func (e *EBR) SynchronizeOn(cpu int) {
	if e.cpu(cpu).nesting > 0 {
		panic("ebr: SynchronizeOn inside critical section")
	}
	e.Synchronize()
}

// QuiescentState contributes nothing to epoch detection (reader
// completion is observed through pinning), but — exactly as in
// rcu.QuiescentState — it periodically donates the core so the advancer
// and limbo drainer stay scheduled when the host has fewer cores than
// the machine has virtual CPUs (e.g. GOMAXPROCS=1): without the yield,
// tight workload loops starve the advancer and grace periods arrive at
// the preemption quantum instead of the demand rate.
func (e *EBR) QuiescentState(cpu int) {
	if e.cpu(cpu).qsCalls.Add(1)%32 == 0 {
		runtime.Gosched()
	}
}

// EnterIdle is a no-op: an idle CPU is simply one that is not pinned.
func (e *EBR) EnterIdle(cpu int) {}

// ExitIdle is a no-op, mirroring EnterIdle.
func (e *EBR) ExitIdle(cpu int) {}

// Retire schedules fn to run once every reader that might hold the
// retired object has finished: the entry lands in cpu's limbo bag
// stamped with the current cookie and the drainer invokes it once two
// epoch advances have passed.
func (e *EBR) Retire(cpu int, fn func()) { e.queue.Retire(cpu, fn) }

// RetireObject is the non-closure Retire variant; the queue carries
// the (reclaimer, obj, idx) payload in the limbo record itself, so the
// steady-state retire path allocates nothing.
func (e *EBR) RetireObject(cpu int, r gsync.Reclaimer, obj any, idx uint64) {
	e.queue.RetireObject(cpu, r, obj, idx)
}

// Barrier blocks until every retirement accepted before the call has
// run (or the engine stopped).
func (e *EBR) Barrier() { e.queue.Barrier() }

// SetPressure expedites limbo draining under memory pressure.
func (e *EBR) SetPressure(under bool) { e.queue.SetPressure(under) }

// RetireBacklog returns the number of retired objects awaiting their
// epoch pair.
func (e *EBR) RetireBacklog() int64 { return e.queue.Pending() }
