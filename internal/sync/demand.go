package sync

import (
	"sync/atomic"

	"prudence/internal/fault"
)

// Demand is the grace-period demand record every in-tree backend
// shares: a plain-demand flag (NeedGP), an expedited-demand flag
// (ExpediteGP) and the one-slot kick channel that wakes the backend's
// driver goroutine.
//
// Raising demand is on the allocator's deferred-free fast path, which
// runs on every vCPU at once, so a flag is written — and the driver
// kicked — only when it goes from false to true. Storing true over
// true changes nothing the driver can observe, and skipping it keeps
// the flags' cache line shared instead of bouncing it between vCPUs on
// every deferred free. The driver clears the flags when the grace
// period they asked for starts or completes (each backend documents
// which); the next raise after a clear kicks again.
//
// The kick is a hint. A lost kick (the fault layer's lost_wakeup
// point) leaves the recorded flag for the driver's timer fallback,
// which is what liveness rests on.
type Demand struct {
	need     atomic.Bool
	expedite atomic.Bool
	kick     chan struct{}
}

// NewDemand returns an empty demand record.
func NewDemand() *Demand {
	return &Demand{kick: make(chan struct{}, 1)}
}

// Need records plain demand for grace-period progress.
func (d *Demand) Need() {
	if raise(&d.need) {
		d.wake()
	}
}

// Expedite records expedited demand; it implies Need. The expedite
// flag is raised first, so a driver that observes the demand also
// observes that it is expedited.
func (d *Demand) Expedite() {
	raised := raise(&d.expedite)
	if raise(&d.need) || raised {
		d.wake()
	}
}

// raise sets f and reports whether this call changed it from false.
func raise(f *atomic.Bool) bool {
	return !f.Load() && f.CompareAndSwap(false, true)
}

// wake kicks the driver unless the fault layer drops the wakeup.
func (d *Demand) wake() {
	// Chaos: a lost wakeup drops the kick after demand is recorded,
	// leaving recovery to the driver's timer fallback.
	//prudence:fault_point
	if fault.Fire(fault.LostWakeup) {
		return
	}
	d.Kick()
}

// Kick wakes the driver without recording demand (new callbacks,
// memory pressure). It never blocks.
func (d *Demand) Kick() {
	select {
	case d.kick <- struct{}{}:
	default:
	}
}

// Kicked is the channel the driver waits on between grace periods.
func (d *Demand) Kicked() <-chan struct{} { return d.kick }

// Needed reports whether plain (or expedited) demand is pending.
func (d *Demand) Needed() bool { return d.need.Load() }

// Expedited reports whether expedited demand is pending.
func (d *Demand) Expedited() bool { return d.expedite.Load() }

// ClearNeed consumes plain demand.
func (d *Demand) ClearNeed() { d.need.Store(false) }

// ClearExpedite consumes expedited demand.
func (d *Demand) ClearExpedite() { d.expedite.Store(false) }
