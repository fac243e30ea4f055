package server

import (
	"fmt"
	"runtime"
	stdsync "sync"
	"testing"
	"time"

	"prudence"
	"prudence/internal/fault"
	"prudence/internal/stats"
)

func testConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		CPUs:                4,
		MemoryPages:         2048,
		SessionBuckets:      1 << 8,
		GracePeriodInterval: time.Millisecond,
		MonitorInterval:     2 * time.Millisecond,
		MaxStall:            20 * time.Millisecond,
	}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// run submits ops to shard as one batch and returns them executed.
func run(t *testing.T, s *Server, shard int, ops ...Op) []Op {
	t.Helper()
	b := NewBatch(len(ops))
	b.Ops = append(b.Ops, ops...)
	if err := s.Submit(shard, b); err != nil {
		t.Fatalf("Submit(%v): %v", ops[0].Kind, err)
	}
	select {
	case got := <-b.Reply:
		return got.Ops
	case <-time.After(10 * time.Second):
		t.Fatalf("batch starting with %v never completed", ops[0].Kind)
		return nil
	}
}

func do(t *testing.T, s *Server, op Op) Op {
	t.Helper()
	return run(t, s, s.ShardFor(op.Key), op)[0]
}

func TestSessionLifecycle(t *testing.T) {
	s := newTestServer(t, testConfig(t))
	payload := []byte("hello, session")
	if op := do(t, s, Op{Kind: OpConnect, Key: 42, Val: payload}); op.Status != StatusOK {
		t.Fatalf("connect: %v", op.Status)
	}
	buf := make([]byte, 128)
	op := do(t, s, Op{Kind: OpGet, Key: 42, Buf: buf})
	if op.Status != StatusOK || string(buf[:op.N]) != string(payload) {
		t.Fatalf("get: status %v, payload %q", op.Status, buf[:op.N])
	}
	if op := do(t, s, Op{Kind: OpTouch, Key: 42, Val: []byte("updated")}); op.Status != StatusOK {
		t.Fatalf("touch: %v", op.Status)
	}
	op = do(t, s, Op{Kind: OpGet, Key: 42, Buf: buf})
	if op.Status != StatusOK || string(buf[:op.N]) != "updated" {
		t.Fatalf("get after touch: status %v, payload %q", op.Status, buf[:op.N])
	}
	if got := s.LiveSessions(); got != 1 {
		t.Fatalf("LiveSessions = %d, want 1", got)
	}
	if op := do(t, s, Op{Kind: OpDisconnect, Key: 42}); op.Status != StatusOK {
		t.Fatalf("disconnect: %v", op.Status)
	}
	if op := do(t, s, Op{Kind: OpGet, Key: 42, Buf: buf}); op.Status != StatusNotFound {
		t.Fatalf("get after disconnect: %v, want not_found", op.Status)
	}
	if op := do(t, s, Op{Kind: OpDisconnect, Key: 42}); op.Status != StatusNotFound {
		t.Fatalf("double disconnect: %v, want not_found", op.Status)
	}
}

func TestRouteLifecycle(t *testing.T) {
	s := newTestServer(t, testConfig(t))
	if op := do(t, s, Op{Kind: OpRouteAdd, Key: 7, Val: []byte("next-hop")}); op.Status != StatusOK {
		t.Fatalf("route add: %v", op.Status)
	}
	buf := make([]byte, 64)
	op := do(t, s, Op{Kind: OpRouteLookup, Key: 7, Buf: buf})
	if op.Status != StatusOK || string(buf[:op.N]) != "next-hop" {
		t.Fatalf("route lookup: status %v, payload %q", op.Status, buf[:op.N])
	}
	if op := do(t, s, Op{Kind: OpRouteDel, Key: 7}); op.Status != StatusOK {
		t.Fatalf("route del: %v", op.Status)
	}
	if op := do(t, s, Op{Kind: OpRouteLookup, Key: 7, Buf: buf}); op.Status != StatusNotFound {
		t.Fatalf("route lookup after del: %v, want not_found", op.Status)
	}
}

func TestStallClampAndCounters(t *testing.T) {
	cfg := testConfig(t)
	s := newTestServer(t, cfg)
	start := time.Now()
	// A hostile hold far past MaxStall must be clamped to it.
	if op := do(t, s, Op{Kind: OpStall, Key: 1, Hold: time.Hour}); op.Status != StatusOK {
		t.Fatalf("stall: %v", op.Status)
	}
	if took := time.Since(start); took > 50*cfg.MaxStall {
		t.Fatalf("stall with hour hold took %v; clamp to %v broken", took, cfg.MaxStall)
	}
	if got := s.stallsServed.Load(); got != 1 {
		t.Fatalf("stalls served = %d, want 1", got)
	}
	if s.Latency(OpStall).Count() != 1 {
		t.Fatal("stall latency histogram empty")
	}
}

// TestStallDoesNotBlockOtherShards pins one shard's reader and checks
// the remaining shards keep serving — the slow-loris isolation story.
func TestStallDoesNotBlockOtherShards(t *testing.T) {
	s := newTestServer(t, testConfig(t))
	stallKey := uint64(0)
	stallShard := s.ShardFor(stallKey)
	sb := NewBatch(1)
	sb.Ops = append(sb.Ops, Op{Kind: OpStall, Key: stallKey, Hold: 20 * time.Millisecond})
	if err := s.Submit(stallShard, sb); err != nil {
		t.Fatal(err)
	}
	served := 0
	for key := uint64(1); key < 100; key++ {
		if s.ShardFor(key) == stallShard {
			continue
		}
		if op := do(t, s, Op{Kind: OpConnect, Key: key, Val: []byte("x")}); op.Status == StatusOK {
			served++
		}
	}
	if served == 0 {
		t.Fatal("no other shard served while one was stalled")
	}
	<-sb.Reply
}

func TestTrySubmitShedsLoad(t *testing.T) {
	cfg := testConfig(t)
	cfg.QueueDepth = 1
	s := newTestServer(t, cfg)
	shard := s.ShardFor(0)
	// Stall the shard so the queue backs up, then overfill it.
	stall := NewBatch(1)
	stall.Ops = append(stall.Ops, Op{Kind: OpStall, Key: 0, Hold: 20 * time.Millisecond})
	if err := s.Submit(shard, stall); err != nil {
		t.Fatal(err)
	}
	var sawBusy bool
	var pending []*Batch
	for i := 0; i < 50; i++ {
		b := NewBatch(1)
		b.Ops = append(b.Ops, Op{Kind: OpStall, Key: 0, Hold: time.Millisecond})
		switch err := s.TrySubmit(shard, b); err {
		case nil:
			pending = append(pending, b)
		case ErrBusy:
			sawBusy = true
		default:
			t.Fatalf("TrySubmit: %v", err)
		}
		if sawBusy {
			break
		}
	}
	if !sawBusy {
		t.Fatal("TrySubmit never returned ErrBusy with a stalled shard and depth-1 queue")
	}
	if s.BusyRejects() == 0 {
		t.Fatal("busy rejection not counted")
	}
	if s.Expedites() == 0 {
		t.Fatal("shed load did not raise expedited reclamation")
	}
	<-stall.Reply
	for _, b := range pending {
		<-b.Reply
	}
}

// TestBacklogMonitorExpedites floods deferred frees with a slow grace
// period so the monitor's latent gauge crosses BacklogHigh and raises
// expedited demand.
func TestBacklogMonitorExpedites(t *testing.T) {
	cfg := testConfig(t)
	cfg.GracePeriodInterval = 200 * time.Millisecond // garbage piles up
	cfg.BacklogHigh = 64
	cfg.MonitorInterval = time.Millisecond
	s := newTestServer(t, cfg)
	// Each touch copy-updates a session: one new object, one deferred.
	b := NewBatch(256)
	for i := 0; i < 256; i++ {
		b.Ops = append(b.Ops, Op{Kind: OpTouch, Key: 5, Val: []byte("v")})
	}
	if err := s.Submit(s.ShardFor(5), b); err != nil {
		t.Fatal(err)
	}
	<-b.Reply
	deadline := time.Now().Add(5 * time.Second)
	for s.Expedites() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("monitor never expedited: backlog sample %d (peak %d), high %d",
				s.lastBacklog.Load(), s.peakBacklog.Load(), cfg.BacklogHigh)
		}
		time.Sleep(time.Millisecond)
	}
	if s.PeakLatentBytes() == 0 {
		t.Fatal("latent-bytes peak never recorded")
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	s := newTestServer(t, testConfig(t))
	s.Close()
	b := NewBatch(1)
	b.Ops = append(b.Ops, Op{Kind: OpConnect, Key: 1, Val: []byte("x")})
	if err := s.Submit(0, b); err != ErrServerClosed {
		t.Fatalf("Submit after Close: %v, want ErrServerClosed", err)
	}
	if err := s.TrySubmit(0, b); err != ErrServerClosed {
		t.Fatalf("TrySubmit after Close: %v, want ErrServerClosed", err)
	}
}

// TestCloseDrainsAcceptedBatches checks every batch accepted before
// Close completes (no stranded submitters), across both allocators and
// all registered schemes.
func TestCloseDrainsAcceptedBatches(t *testing.T) {
	for _, alloc := range []prudence.AllocatorKind{prudence.Prudence, prudence.SLUB} {
		for _, scheme := range prudence.Reclamations() {
			t.Run(fmt.Sprintf("%s/%s", alloc, scheme), func(t *testing.T) {
				cfg := testConfig(t)
				cfg.Allocator = alloc
				cfg.Reclamation = prudence.ReclamationKind(scheme)
				s := newTestServer(t, cfg)

				var wg stdsync.WaitGroup
				const clients = 8
				wg.Add(clients)
				for c := 0; c < clients; c++ {
					go func(c int) {
						defer wg.Done()
						for i := 0; i < 200; i++ {
							key := uint64(c*1000 + i)
							b := NewBatch(2)
							b.Ops = append(b.Ops,
								Op{Kind: OpConnect, Key: key, Val: []byte("payload")},
								Op{Kind: OpDisconnect, Key: key})
							if err := s.Submit(s.ShardFor(key), b); err != nil {
								return // closed underneath us: fine
							}
							got := <-b.Reply // must always arrive
							for j := range got.Ops {
								st := got.Ops[j].Status
								if st != StatusOK && st != StatusShutdown && st != StatusNotFound {
									t.Errorf("op status %v", st)
									return
								}
							}
						}
					}(c)
				}
				time.Sleep(5 * time.Millisecond)
				s.Close()
				done := make(chan struct{})
				go func() { wg.Wait(); close(done) }()
				select {
				case <-done:
				case <-time.After(30 * time.Second):
					t.Fatal("clients stranded after Close: a batch never got its reply")
				}
			})
		}
	}
}

// TestCloseUnderCPUHogsStrandsNoClient is the regression test for the
// Submit/Close race: a submitter that passed the closed check and was
// then descheduled must not land its batch in a queue after Close's
// final sweep, where no worker would ever reply. Busy-loop goroutines
// on every P supply the scheduling pressure that deschedules
// submitters, and the SubmitStall fault point holds one in that window
// often enough that every run straddles Close several times.
func TestCloseUnderCPUHogsStrandsNoClient(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	stop := make(chan struct{})
	var hogs stdsync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		hogs.Add(1)
		go func() {
			defer hogs.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	defer func() { close(stop); hogs.Wait() }()
	fault.Enable(fault.Config{Seed: 1, Rules: map[fault.Point]fault.Rule{
		fault.SubmitStall: {Rate: 0.05, Delay: 2 * time.Millisecond},
	}})
	defer fault.Disable()

	const cycles, clients = 40, 8
	for cycle := 0; cycle < cycles && !t.Failed(); cycle++ {
		cfg := testConfig(t)
		cfg.CPUs = 2
		cfg.MemoryPages = 512
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var wg stdsync.WaitGroup
		wg.Add(clients)
		for c := 0; c < clients; c++ {
			go func(c int) {
				defer wg.Done()
				submit := s.Submit
				if c%2 == 1 {
					submit = s.TrySubmit
				}
				var sent []*Batch
				for i := 0; ; i++ {
					key := uint64(c<<20 | i)
					b := NewBatch(1)
					b.Ops = append(b.Ops, Op{Kind: OpGet, Key: key})
					err := submit(s.ShardFor(key), b)
					if err == ErrServerClosed {
						break
					}
					if err == nil {
						sent = append(sent, b)
					}
				}
				timeout := time.After(10 * time.Second)
				for _, b := range sent {
					select {
					case <-b.Reply:
					case <-timeout:
						t.Errorf("cycle %d: a batch never got its reply", cycle)
						return
					}
				}
			}(c)
		}
		time.Sleep(time.Duration(5+cycle%5) * time.Millisecond)
		s.Close()
		wg.Wait()
	}
}

// TestCloseStopsGoroutines pins the full teardown: server workers,
// monitor, and the whole stack underneath exit on Close.
func TestCloseStopsGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	s := newTestServer(t, testConfig(t))
	for i := uint64(0); i < 100; i++ {
		do(t, s, Op{Kind: OpConnect, Key: i, Val: []byte("x")})
	}
	s.Close()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: %d before, %d after Close\n%s",
				base, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestShardForCoversAllShards(t *testing.T) {
	s := newTestServer(t, testConfig(t))
	seen := make(map[int]bool)
	for key := uint64(0); key < 1000; key++ {
		shard := s.ShardFor(key)
		if shard < 0 || shard >= s.Shards() {
			t.Fatalf("ShardFor(%d) = %d out of range", key, shard)
		}
		seen[shard] = true
	}
	if len(seen) != s.Shards() {
		t.Fatalf("1000 keys hit only %d of %d shards", len(seen), s.Shards())
	}
}

func TestSessionBucketsSizedFromSessions(t *testing.T) {
	for _, tc := range []struct {
		sessions, buckets, want int
	}{
		{0, 0, 1 << 14},
		{100_000, 0, 1 << 15},
		{1_000_000, 0, 1 << 18},
		{1_000_000, 1 << 8, 1 << 8},
	} {
		cfg := Config{Sessions: tc.sessions, SessionBuckets: tc.buckets}
		cfg.fill()
		if cfg.SessionBuckets != tc.want {
			t.Errorf("Sessions=%d SessionBuckets=%d: filled to %d buckets, want %d",
				tc.sessions, tc.buckets, cfg.SessionBuckets, tc.want)
		}
	}
}

// TestBatchKeepsPerKeyOrder runs a batch whose Gets are split by writes
// to the same keys, on every allocator and scheme: each Get must see
// every earlier op of the batch, whether it runs in a staged run of
// Gets or alone.
func TestBatchKeepsPerKeyOrder(t *testing.T) {
	for _, alloc := range []prudence.AllocatorKind{prudence.Prudence, prudence.SLUB} {
		for _, scheme := range prudence.Reclamations() {
			t.Run(fmt.Sprintf("%s/%s", alloc, scheme), func(t *testing.T) {
				cfg := testConfig(t)
				cfg.Allocator = alloc
				cfg.Reclamation = prudence.ReclamationKind(scheme)
				s := newTestServer(t, cfg)
				k, j := uint64(1), uint64(2)
				for s.ShardFor(j) != s.ShardFor(k) {
					j++
				}
				for _, op := range run(t, s, s.ShardFor(k),
					Op{Kind: OpConnect, Key: k, Val: []byte("old-k")},
					Op{Kind: OpConnect, Key: j, Val: []byte("old-j")}) {
					if op.Status != StatusOK {
						t.Fatalf("connect %d: %v", op.Key, op.Status)
					}
				}
				get := func(key uint64) Op { return Op{Kind: OpGet, Key: key, Buf: make([]byte, 16)} }
				ops := run(t, s, s.ShardFor(k),
					get(k), get(j),
					Op{Kind: OpTouch, Key: k, Val: []byte("new-k")},
					get(k),
					Op{Kind: OpDisconnect, Key: j},
					get(j))
				want := []struct {
					status Status
					val    string
				}{
					{StatusOK, "old-k"}, {StatusOK, "old-j"},
					{StatusOK, ""},
					{StatusOK, "new-k"},
					{StatusOK, ""},
					{StatusNotFound, ""},
				}
				for i, w := range want {
					op := ops[i]
					if got := string(op.Buf[:op.N]); op.Status != w.status || got != w.val {
						t.Errorf("op %d (%v %d) = %v %q, want %v %q", i, op.Kind, op.Key, op.Status, got, w.status, w.val)
					}
				}
			})
		}
	}
}

// TestBatchObservesLikePerOp checks that observing each op kind once
// per batch leaves the same latency histograms and op counters as one
// Observe and one increment per op would.
func TestBatchObservesLikePerOp(t *testing.T) {
	s := newTestServer(t, testConfig(t))
	key := uint64(7)
	buf := make([]byte, 16)
	ops := run(t, s, s.ShardFor(key),
		Op{Kind: OpConnect, Key: key, Val: []byte("v")},
		Op{Kind: OpGet, Key: key, Buf: buf},
		Op{Kind: OpGet, Key: key + 1, Buf: buf},
		Op{Kind: OpTouch, Key: key, Val: []byte("w")},
		Op{Kind: OpGet, Key: key, Buf: buf},
		Op{Kind: OpRouteAdd, Key: key, Val: []byte("r")},
		Op{Kind: OpRouteLookup, Key: key, Buf: buf},
		Op{Kind: OpDisconnect, Key: key},
		Op{Kind: numOpKinds}, // unknown: executed as not found, never counted
	)
	// Every op of a batch shares the batch's completion latency.
	lat := s.Latency(OpGet).Export().Max
	var want [numOpKinds]stats.Histogram
	var count [numOpKinds]uint64
	for _, op := range ops {
		if op.Kind < numOpKinds {
			want[op.Kind].Observe(lat)
			count[op.Kind]++
		}
	}
	for k := OpKind(0); k < numOpKinds; k++ {
		if got, w := s.Latency(k).Export(), want[k].Export(); got != w {
			t.Errorf("%v latency = %+v, want per-op %+v", k, got, w)
		}
		if got := s.OpsCompleted(k); got != count[k] {
			t.Errorf("prudence_server_ops_total{op=%q} = %d, want %d", k, got, count[k])
		}
	}
}

// TestGetRunAllocatesNothing executes a batch of MaxGetMany Gets, one
// staged lookup, and checks it allocates no Go memory.
func TestGetRunAllocatesNothing(t *testing.T) {
	cfg := testConfig(t)
	cfg.CPUs = 1
	s, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	// No worker runs, so this goroutine owns vCPU 0; it idles the vCPU
	// before Close waits out grace periods.
	t.Cleanup(func() {
		s.sys.QuiescentState(0)
		s.sys.EnterIdle(0)
	})
	b := &Batch{}
	for k := uint64(0); k < prudence.MaxGetMany; k += 2 {
		b.Ops = append(b.Ops, Op{Kind: OpConnect, Key: k, Val: []byte("v")})
	}
	s.runBatch(0, b)
	b.Ops = b.Ops[:0]
	for k := uint64(0); k < prudence.MaxGetMany; k++ {
		b.Ops = append(b.Ops, Op{Kind: OpGet, Key: k, Buf: make([]byte, 8)})
	}
	if got := testing.AllocsPerRun(100, func() { s.runBatch(0, b) }); got != 0 {
		t.Errorf("runBatch of %d Gets: %v allocs/run, want 0", len(b.Ops), got)
	}
	for _, op := range b.Ops {
		want := StatusNotFound
		if op.Key%2 == 0 {
			want = StatusOK
		}
		if op.Status != want || (want == StatusOK && string(op.Buf[:op.N]) != "v") {
			t.Errorf("get %d = %v %q, want %v", op.Key, op.Status, op.Buf[:op.N], want)
		}
	}
}
