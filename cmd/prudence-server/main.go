// Command prudence-server runs the long-running session/routing
// service built on the prudence stack, or (with -load) drives it with
// the built-in load generator and reports the run.
//
// Serve mode — start the service and leave it running:
//
//	prudence-server -listen :8377 -cpus 8 -pages 65536 -alloc prudence -scheme rcu
//	curl -X PUT -d 'hello' localhost:8377/v1/session/42
//	curl localhost:8377/v1/session/42
//	curl localhost:8377/metrics
//
// Load mode — run a seeded churn workload in-process and exit (status
// 1 if -fail-on-oom is set and any allocation hit arena exhaustion, or
// if the post-run invariants fail):
//
//	prudence-server -load -sessions 1000000 -ops 3000000 -seed 42
//	prudence-server -load -duration 60s -scheme nebr -alloc slub -fail-on-oom
//
// Load mode still serves HTTP when -listen is set, so a run can be
// scraped while it executes. -json emits BENCH-style records.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"prudence"
	"prudence/internal/bench"
	"prudence/internal/server"
	"prudence/internal/server/loadgen"
)

func main() {
	var (
		listen   = flag.String("listen", "", "HTTP listen address (serve mode default :8377; empty in -load mode = no HTTP)")
		cpus     = flag.Int("cpus", 8, "virtual CPUs / shard workers")
		pages    = flag.Int("pages", 16384, "arena size in 4 KiB pages")
		allocStr = flag.String("alloc", "prudence", "allocator: prudence|slub")
		scheme   = flag.String("scheme", "", "reclamation scheme (rcu|ebr|hp|nebr; empty = rcu)")
		arena    = flag.String("arena", "", "arena backend: heap|mmap (empty = heap or $PRUDENCE_ARENA)")
		gpIval   = flag.Duration("gp-interval", 0, "grace-period interval (0 = backend default)")
		qdepth   = flag.Int("queue-depth", 64, "per-shard batch queue capacity")
		backlog  = flag.Int("backlog-high", 1<<16, "latent objects before the monitor expedites")

		load      = flag.Bool("load", false, "run the load generator and exit")
		sessions  = flag.Int("sessions", 100000, "target live sessions (load mode); also sizes the session map")
		ops       = flag.Int("ops", 0, "load: op budget after ramp (0 = 2x sessions)")
		duration  = flag.Duration("duration", 0, "load: wall-clock cap for the churn phase")
		batch     = flag.Int("batch", 128, "load: ops per batch")
		hotPm     = flag.Int("hot-permille", 200, "load: hot-key read share, per mille")
		dosPm     = flag.Int("dos-permille", 100, "load: dos flood share, per mille (-1 disables)")
		stormPm   = flag.Int("storm-permille", 30, "load: storm share, per mille (-1 disables)")
		stall     = flag.Int("stall-every", 2048, "load: slow-loris stall per worker every N iterations (0 disables)")
		stallHold = flag.Duration("stall-hold", 20*time.Millisecond, "load: stall pin duration")
		seed      = flag.Uint64("seed", 1, "load: workload seed (same seed replays the same run)")
		failOOM   = flag.Bool("fail-on-oom", false, "load: exit 1 if any operation hit arena exhaustion")
		jsonPath  = flag.String("json", "", "load: write BENCH-style JSON records to this file")
	)
	flag.Parse()

	srv, err := server.New(server.Config{
		CPUs:                *cpus,
		MemoryPages:         *pages,
		Allocator:           prudence.AllocatorKind(*allocStr),
		Reclamation:         prudence.ReclamationKind(*scheme),
		Arena:               prudence.ArenaKind(*arena),
		GracePeriodInterval: *gpIval,
		QueueDepth:          *qdepth,
		BacklogHigh:         *backlog,
		Sessions:            *sessions,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "prudence-server:", err)
		os.Exit(2)
	}

	addr := *listen
	if !*load && addr == "" {
		addr = ":8377"
	}
	httpErr := make(chan error, 1)
	if addr != "" {
		l, err := net.Listen("tcp", addr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "prudence-server:", err)
			srv.Close()
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "prudence-server: listening on %s (%s/%s/%s, %d shards, %d pages)\n",
			l.Addr(), srv.System().AllocatorName(), srv.System().ReclamationName(),
			srv.System().ArenaName(), srv.Shards(), *pages)
		go func() { httpErr <- srv.Serve(l) }()
	}

	if !*load {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		select {
		case s := <-sig:
			fmt.Fprintf(os.Stderr, "prudence-server: %v, draining\n", s)
		case err := <-httpErr:
			if err != nil {
				fmt.Fprintln(os.Stderr, "prudence-server:", err)
			}
		}
		srv.Close()
		return
	}

	res := loadgen.Run(srv, loadgen.Config{
		Sessions:      *sessions,
		Ops:           *ops,
		Duration:      *duration,
		BatchSize:     *batch,
		HotPermille:   *hotPm,
		DoSPermille:   *dosPm,
		StormPermille: *stormPm,
		StallEvery:    *stall,
		StallHold:     *stallHold,
		Seed:          *seed,
	})
	fmt.Println(res)
	fmt.Printf("server: peak latent %d bytes (%d objects), expedites=%d busy_rejects=%d ooms=%d gps=%d\n",
		srv.PeakLatentBytes(), srv.PeakLatentObjects(), srv.Expedites(),
		srv.BusyRejects(), srv.OOMs(), srv.System().GracePeriods())

	failed := false
	if *failOOM && (res.OOMs > 0 || srv.OOMs() > 0) {
		fmt.Fprintf(os.Stderr, "FAIL: %d operations hit arena exhaustion\n", srv.OOMs())
		failed = true
	}
	// Post-run invariants: the generator's optimistic accounting and
	// the server's applied state must agree, or batches were lost.
	if got, want := uint64(res.EndLive), res.Connects-res.Disconnects; got != want {
		fmt.Fprintf(os.Stderr, "FAIL: live sessions %d != connects-disconnects %d\n", got, want)
		failed = true
	}
	if res.ShutdownDrops > 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d ops dropped at shutdown during the run\n", res.ShutdownDrops)
		failed = true
	}

	if *jsonPath != "" {
		if err := writeRecords(*jsonPath, srv, res, *allocStr, *scheme); err != nil {
			fmt.Fprintln(os.Stderr, "prudence-server:", err)
			failed = true
		}
	}
	srv.Close()
	if failed {
		os.Exit(1)
	}
}

func writeRecords(path string, srv *server.Server, res loadgen.Result, alloc, scheme string) error {
	if scheme == "" {
		scheme = "rcu"
	}
	q := fmt.Sprintf("{alloc=%s,scheme=%s}", alloc, scheme)
	recs := []bench.Record{
		{Exp: "server", Metric: "sessions_total" + q, Value: float64(res.SessionsTotal), Unit: "sessions"},
		{Exp: "server", Metric: "peak_live_sessions" + q, Value: float64(res.PeakLive), Unit: "sessions"},
		{Exp: "server", Metric: "ops_total" + q, Value: float64(res.OpsTotal), Unit: "ops"},
		{Exp: "server", Metric: "throughput" + q, Value: res.ThroughputOps, Unit: "ops/s"},
		{Exp: "server", Metric: "latency_p50" + q, Value: res.P50.Seconds() * 1e6, Unit: "us"},
		{Exp: "server", Metric: "latency_p99" + q, Value: res.P99.Seconds() * 1e6, Unit: "us"},
		{Exp: "server", Metric: "latency_p999" + q, Value: res.P999.Seconds() * 1e6, Unit: "us"},
		{Exp: "server", Metric: "latent_bytes_peak" + q, Value: float64(srv.PeakLatentBytes()), Unit: "bytes"},
		{Exp: "server", Metric: "expedites" + q, Value: float64(srv.Expedites()), Unit: "count"},
		{Exp: "server", Metric: "ooms" + q, Value: float64(srv.OOMs()), Unit: "count"},
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return bench.WriteRecords(f, recs)
}
