package sync

import "testing"

// kicked drains the demand's kick channel and reports whether a kick was
// pending.
func kicked(d *Demand) bool {
	select {
	case <-d.Kicked():
		return true
	default:
		return false
	}
}

// Raising demand writes the flag and kicks only on the false-to-true
// edge; raising it again before the driver clears it is a no-op.
func TestDemandKicksOnlyOnRaise(t *testing.T) {
	d := NewDemand()
	d.Need()
	if !d.Needed() || d.Expedited() || !kicked(d) {
		t.Fatal("first Need: want demand recorded and one kick")
	}
	d.Need()
	if kicked(d) {
		t.Fatal("Need over pending demand kicked again")
	}
	d.Expedite()
	if !d.Expedited() || !kicked(d) {
		t.Fatal("Expedite over plain demand: want expedited and a kick")
	}
	d.Expedite()
	if kicked(d) {
		t.Fatal("Expedite over pending expedited demand kicked again")
	}
	d.ClearNeed()
	d.Need()
	if !d.Needed() || !kicked(d) {
		t.Fatal("Need after ClearNeed: want demand recorded and a kick")
	}
	d.ClearNeed()
	d.ClearExpedite()
	d.Expedite()
	if !d.Needed() || !d.Expedited() || !kicked(d) || kicked(d) {
		t.Fatal("Expedite on no demand: want both flags and exactly one kick")
	}
}

// Kick wakes the driver without recording demand, and never blocks.
func TestDemandKickRecordsNothing(t *testing.T) {
	d := NewDemand()
	d.Kick()
	d.Kick()
	if d.Needed() || d.Expedited() || !kicked(d) || kicked(d) {
		t.Fatal("Kick: want one pending kick and no demand")
	}
}
