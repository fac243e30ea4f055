package trace

import (
	"strings"
	"sync"
	"testing"
)

func TestRingCapacityRounding(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 16}, {1, 16}, {16, 16}, {17, 32}, {100, 128}, {1024, 1024},
	}
	for _, c := range cases {
		if got := NewRing(c.in).Cap(); got != c.want {
			t.Errorf("NewRing(%d).Cap() = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestRecordAndSnapshot(t *testing.T) {
	r := NewRing(16)
	r.Record(KindRefill, 2, 8, 1)
	r.Record(KindFlush, 3, 4, 0)
	evs := r.Snapshot()
	if len(evs) != 2 {
		t.Fatalf("Snapshot len = %d", len(evs))
	}
	if evs[0].Kind != KindRefill || evs[0].CPU != 2 || evs[0].Arg1 != 8 || evs[0].Arg2 != 1 {
		t.Fatalf("event 0 = %+v", evs[0])
	}
	if evs[1].Kind != KindFlush {
		t.Fatalf("event 1 = %+v", evs[1])
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestOverwriteKeepsNewest(t *testing.T) {
	r := NewRing(16)
	for i := 0; i < 40; i++ {
		r.Record(KindMalloc, 0, int64(i), 0)
	}
	evs := r.Snapshot()
	if len(evs) != 16 {
		t.Fatalf("retained %d events, want 16", len(evs))
	}
	for i, e := range evs {
		if e.Arg1 != int64(24+i) {
			t.Fatalf("event %d has arg1=%d, want %d (oldest-first ordering)", i, e.Arg1, 24+i)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindNone; k <= KindOOM; k++ {
		if s := k.String(); s == "" || strings.HasPrefix(s, "Kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if s := Kind(200).String(); !strings.HasPrefix(s, "Kind(") {
		t.Errorf("unknown kind renders %q", s)
	}
}

func TestDumpAndCounts(t *testing.T) {
	r := NewRing(16)
	for i := 0; i < 5; i++ {
		r.Record(KindGrow, 1, 1, 0)
	}
	r.Record(KindShrink, 1, 3, 0)
	counts := r.CountByKind()
	if counts[KindGrow] != 5 || counts[KindShrink] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	dump := r.Dump(2)
	lines := strings.Count(dump, "\n")
	if lines != 2 {
		t.Fatalf("Dump(2) has %d lines:\n%s", lines, dump)
	}
	if !strings.Contains(dump, "shrink") {
		t.Fatalf("dump missing newest event:\n%s", dump)
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRing(1024)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Record(KindDefer, cpu, int64(i), 0)
			}
		}(w)
	}
	wg.Wait()
	if r.Len() != 8000 {
		t.Fatalf("Len = %d, want 8000", r.Len())
	}
	evs := r.Snapshot()
	if len(evs) == 0 || len(evs) > 1024 {
		t.Fatalf("Snapshot retained %d", len(evs))
	}
	for _, e := range evs {
		if e.Kind != KindDefer {
			t.Fatalf("torn event: %+v", e)
		}
	}
}

// Shards are per vCPU, but a snapshot reads as one ring: events from
// every vCPU merged oldest first and trimmed to the newest Cap.
func TestShardsMergeByTime(t *testing.T) {
	r := NewRing(16)
	for i := 0; i < 24; i++ {
		r.Record(KindRefill, i%3, int64(i), 0)
	}
	evs := r.Snapshot()
	if len(evs) != 16 {
		t.Fatalf("retained %d events, want 16", len(evs))
	}
	seen := map[int64]bool{}
	for i, e := range evs {
		if i > 0 && e.At.Before(evs[i-1].At) {
			t.Fatalf("event %d is older than event %d", i, i-1)
		}
		if e.Arg1 < 8 || e.CPU != int32(e.Arg1%3) || seen[e.Arg1] {
			t.Fatalf("event %d = %+v: want each of the newest 16 events once", i, e)
		}
		seen[e.Arg1] = true
	}
	if r.Len() != 24 {
		t.Fatalf("Len = %d, want 24", r.Len())
	}
}

// A busy vCPU keeps a full window even when its shard is one of many.
func TestOneShardFillsTheWindow(t *testing.T) {
	r := NewRing(32)
	r.Record(KindGrow, 1, 0, 0)
	for i := 0; i < 100; i++ {
		r.Record(KindMalloc, 5, int64(i), 0)
	}
	evs := r.Snapshot()
	if len(evs) != 32 || evs[31].Arg1 != 99 || evs[0].Kind != KindMalloc {
		t.Fatalf("snapshot = %d events, first %+v, last %+v", len(evs), evs[0], evs[len(evs)-1])
	}
}
