package pagealloc

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"prudence/internal/memarena"
)

func newAlloc(pages int) *Allocator {
	return New(memarena.New(pages))
}

func TestAllocFreeSinglePage(t *testing.T) {
	a := newAlloc(16)
	r, err := a.Alloc(0)
	if err != nil {
		t.Fatalf("Alloc(0): %v", err)
	}
	if r.Pages() != 1 {
		t.Fatalf("Pages() = %d, want 1", r.Pages())
	}
	if got := a.FreePages(); got != 15 {
		t.Fatalf("FreePages() = %d, want 15", got)
	}
	if got := a.Arena().UsedPages(); got != 1 {
		t.Fatalf("arena UsedPages() = %d, want 1", got)
	}
	a.Free(r)
	if got := a.FreePages(); got != 16 {
		t.Fatalf("FreePages() after free = %d, want 16", got)
	}
	if got := a.Arena().UsedPages(); got != 0 {
		t.Fatalf("arena UsedPages() after free = %d, want 0", got)
	}
}

func TestAllocOrderBounds(t *testing.T) {
	a := newAlloc(16)
	if _, err := a.Alloc(-1); err == nil {
		t.Error("Alloc(-1) succeeded")
	}
	if _, err := a.Alloc(MaxOrder + 1); err == nil {
		t.Errorf("Alloc(%d) succeeded", MaxOrder+1)
	}
}

func TestExhaustionReturnsOOM(t *testing.T) {
	a := newAlloc(4)
	var runs []Run
	for i := 0; i < 4; i++ {
		r, err := a.Alloc(0)
		if err != nil {
			t.Fatalf("Alloc #%d: %v", i, err)
		}
		runs = append(runs, r)
	}
	if _, err := a.Alloc(0); err != ErrOutOfMemory {
		t.Fatalf("Alloc on empty = %v, want ErrOutOfMemory", err)
	}
	if got := a.Stats().Failures; got != 1 {
		t.Fatalf("Failures = %d, want 1", got)
	}
	for _, r := range runs {
		a.Free(r)
	}
	if _, err := a.Alloc(2); err != nil {
		t.Fatalf("Alloc(2) after coalescing frees: %v", err)
	}
}

func TestSplitAndCoalesce(t *testing.T) {
	a := newAlloc(8) // seeds one order-3 block
	r0, err := a.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	// One order-3 block split into order-0: 3 splits.
	if got := a.Stats().Splits; got != 3 {
		t.Fatalf("Splits = %d, want 3", got)
	}
	a.Free(r0)
	if got := a.Stats().Coalesces; got != 3 {
		t.Fatalf("Coalesces = %d, want 3", got)
	}
	counts := a.FreeBlockCounts()
	if counts[3] != 1 {
		t.Fatalf("after full coalesce FreeBlockCounts = %v, want single order-3 block", counts)
	}
}

func TestNonPowerOfTwoArenaSeeding(t *testing.T) {
	a := newAlloc(13) // 8 + 4 + 1
	counts := a.FreeBlockCounts()
	if counts[3] != 1 || counts[2] != 1 || counts[0] != 1 {
		t.Fatalf("FreeBlockCounts = %v, want blocks at orders 3,2,0", counts)
	}
	if got := a.FreePages(); got != 13 {
		t.Fatalf("FreePages = %d, want 13", got)
	}
}

func TestDoubleFreeReturnsError(t *testing.T) {
	a := newAlloc(8)
	r, _ := a.Alloc(1)
	if err := a.Free(r); err != nil {
		t.Fatalf("first free: %v", err)
	}
	if err := a.Free(r); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("double free err = %v, want ErrDoubleFree", err)
	}
	if got := a.Stats().BadFrees; got != 1 {
		t.Fatalf("BadFrees = %d, want 1", got)
	}
	// The rejected free must not corrupt accounting: the block is still
	// free exactly once.
	if got := a.FreePages(); got != 8 {
		t.Fatalf("FreePages = %d, want 8", got)
	}
}

func TestWrongOrderFreeReturnsError(t *testing.T) {
	a := newAlloc(8)
	r, _ := a.Alloc(1)
	if err := a.Free(Run{Start: r.Start, Order: 0}); !errors.Is(err, ErrWrongOrder) {
		t.Fatalf("wrong-order err = %v, want ErrWrongOrder", err)
	}
	if got := a.Stats().BadFrees; got != 1 {
		t.Fatalf("BadFrees = %d, want 1", got)
	}
	if err := a.Free(r); err != nil {
		t.Fatalf("correct free after rejected one: %v", err)
	}
}

func TestDoubleFreePanicsUnderDebug(t *testing.T) {
	a := newAlloc(8)
	a.SetDebugPanic(true)
	r, _ := a.Alloc(1)
	a.Free(r)
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	a.Free(r)
}

func TestWrongOrderFreePanicsUnderDebug(t *testing.T) {
	a := newAlloc(8)
	a.SetDebugPanic(true)
	r, _ := a.Alloc(1)
	defer func() {
		if recover() == nil {
			t.Error("wrong-order free did not panic")
		}
	}()
	a.Free(Run{Start: r.Start, Order: 0})
}

func TestBytesLength(t *testing.T) {
	a := newAlloc(8)
	r, _ := a.Alloc(2)
	b := a.Bytes(r)
	if len(b) != 4*memarena.PageSize {
		t.Fatalf("Bytes len = %d, want %d", len(b), 4*memarena.PageSize)
	}
}

func TestNoOverlapAmongAllocations(t *testing.T) {
	a := newAlloc(64)
	owned := map[int]bool{}
	var runs []Run
	for {
		r, err := a.Alloc(1)
		if err != nil {
			break
		}
		for p := r.Start; p < r.Start+r.Pages(); p++ {
			if owned[p] {
				t.Fatalf("page %d handed out twice", p)
			}
			owned[p] = true
		}
		runs = append(runs, r)
	}
	if len(runs) != 32 {
		t.Fatalf("allocated %d order-1 runs from 64 pages, want 32", len(runs))
	}
	for _, r := range runs {
		a.Free(r)
	}
}

func TestPressureNotification(t *testing.T) {
	a := newAlloc(8)
	var mu sync.Mutex
	var events []bool
	a.OnPressure(func(under bool) {
		mu.Lock()
		events = append(events, under)
		mu.Unlock()
	})
	a.SetPressureWatermark(4)
	r1, _ := a.Alloc(2) // 4 used -> pressure
	if !a.UnderPressure() {
		t.Fatal("expected pressure at watermark")
	}
	a.Free(r1) // 0 used -> relief
	if a.UnderPressure() {
		t.Fatal("expected no pressure after free")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 2 || events[0] != true || events[1] != false {
		t.Fatalf("pressure events = %v, want [true false]", events)
	}
}

// Property: any sequence of allocations followed by freeing everything
// restores the allocator to a fully coalesced initial state.
func TestPropertyFullCoalesceAfterRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := newAlloc(128) // one order-7... seeded as 1x64, 1x32, ... per greedy; 128 = 2^7 but MaxOrder=10 so single block of order 7
		initial := a.FreeBlockCounts()
		var live []Run
		for i := 0; i < 200; i++ {
			if rng.Intn(2) == 0 || len(live) == 0 {
				r, err := a.Alloc(rng.Intn(4))
				if err == nil {
					live = append(live, r)
				}
			} else {
				i := rng.Intn(len(live))
				a.Free(live[i])
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		for _, r := range live {
			a.Free(r)
		}
		if a.FreePages() != 128 || a.Arena().UsedPages() != 0 {
			return false
		}
		final := a.FreeBlockCounts()
		return final == initial
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: distinct live runs never overlap, across random op sequences.
func TestPropertyNoOverlap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := newAlloc(96)
		var live []Run
		for i := 0; i < 150; i++ {
			if rng.Intn(3) > 0 || len(live) == 0 {
				if r, err := a.Alloc(rng.Intn(3)); err == nil {
					live = append(live, r)
				}
			} else {
				i := rng.Intn(len(live))
				a.Free(live[i])
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			seen := map[int]bool{}
			for _, r := range live {
				for p := r.Start; p < r.Start+r.Pages(); p++ {
					if seen[p] {
						return false
					}
					seen[p] = true
				}
			}
		}
		for _, r := range live {
			a.Free(r)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAllocFree(t *testing.T) {
	a := newAlloc(256)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var live []Run
			for i := 0; i < 500; i++ {
				if rng.Intn(2) == 0 || len(live) == 0 {
					if r, err := a.Alloc(rng.Intn(3)); err == nil {
						live = append(live, r)
					}
				} else {
					i := rng.Intn(len(live))
					a.Free(live[i])
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			}
			for _, r := range live {
				a.Free(r)
			}
		}(int64(w))
	}
	wg.Wait()
	if got := a.FreePages(); got != 256 {
		t.Fatalf("FreePages = %d after balanced concurrent ops, want 256", got)
	}
}

// A full arena under concurrent alloc/free churn must never
// over-commit. Free has to release a block's frames before the block
// is back on a free list: otherwise a concurrent alloc can take the
// block — here the order-1 block a free coalesces — and acquire its
// frames first, and memarena panics on the over-commit.
func TestConcurrentChurnOnFullArenaNeverOvercommits(t *testing.T) {
	a := newAlloc(2) // one buddy pair: every order-1 alloc needs both pages
	spin := func(order int) Run {
		for {
			if r, err := a.Alloc(order); err == nil {
				return r
			}
		}
	}
	free := func(r Run) {
		if err := a.Free(r); err != nil {
			t.Error(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // churns single pages
		defer wg.Done()
		for i := 0; i < 50000; i++ {
			free(spin(0))
		}
	}()
	go func() { // churns a page, then the whole pair
		defer wg.Done()
		for i := 0; i < 50000; i++ {
			free(spin(0))
			free(spin(1))
		}
	}()
	wg.Wait()
	if used := a.Arena().UsedPages(); used != 0 {
		t.Fatalf("arena UsedPages() = %d after churn, want 0", used)
	}
}
