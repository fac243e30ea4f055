// Command perfbench is the repository benchmark: seeded closed-loop
// workloads against the default stack (Prudence allocator, RCU, heap
// arena) on two virtual CPUs, from the paper's allocator pair loop up to
// HTTP sessions. Every measurement is taken here, around calls into the
// public API of each layer, and every run checks the program's outputs.
//
// Run it from the repository root, which builds it from source first:
//
//	bash perfbench/run.sh --workload session-read --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, each the median over
// rounds fresh stacks; with --trace 1 a per-layer ledger. The last line
// of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; a failed correctness check makes the
// command exit with status 1.
//
// perfbench is a module of its own, so `go test ./...` at the
// repository root does not build it; its tests run with
// `cd perfbench && go test ./...`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"prudence"
)

// vcpus is the parallelism of every workload: virtual CPUs in the
// stack, GOMAXPROCS, and client goroutines or connections.
const vcpus = 2

// stackConfig is the stack every workload measures. The arena is named
// so that $PRUDENCE_ARENA cannot change what is measured.
var stackConfig = prudence.Config{
	CPUs:        vcpus,
	MemoryPages: 16384,
	Allocator:   prudence.Prudence,
	Reclamation: prudence.RCU,
	Arena:       prudence.ArenaHeap,
}

// rounds is how many times an end-to-end run builds, populates, warms
// and measures a fresh stack, each for its share of the measured
// seconds. Every metric is the median over rounds, so a burst of noise
// on the host moves one round rather than the result.
const rounds = 5

// workload is one seeded closed-loop traffic mix.
type workload interface {
	// setup builds the stack, populates it and warms it up.
	setup() error
	// run drives the closed loop for d, untraced.
	run(d time.Duration) *phase
	// trace splits d between an untraced base phase and the traced
	// phases, and fills the ledger.
	trace(d time.Duration, l *ledger) *phase
	// close runs the end-of-run correctness checks, tears the stack
	// down and returns the checks that failed.
	close() []string
}

var workloads = map[string]func(seed uint64) workload{
	"alloc-defer":   newAllocDefer,
	"session-read":  func(seed uint64) workload { return newSession(readMix, seed) },
	"session-churn": func(seed uint64) workload { return newSession(churnMix, seed) },
	"http-session":  newHTTPSession,
}

// phase is the tally of one measured interval.
type phase struct {
	elapsed   time.Duration
	ops       int64   // operations completed
	attempted int64   // operations attempted
	failed    int64   // operations failed (status, reply or check)
	lat       samples // request latencies
	peakUsed  int64   // highest System.UsedBytes seen between requests
	errs      []string
}

func (p *phase) opsPerSec() float64 { return float64(p.ops) / p.elapsed.Seconds() }

// fail records a failed correctness check; only the first few are kept.
func (p *phase) fail(format string, args ...any) {
	p.failed++
	if len(p.errs) < 10 {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
}

// absorb folds a client's tally into p.
func (p *phase) absorb(c *phase) {
	p.ops += c.ops
	p.attempted += c.attempted
	p.failed += c.failed
	p.lat = append(p.lat, c.lat...)
	p.peakUsed = max(p.peakUsed, c.peakUsed)
	for _, e := range c.errs {
		if len(p.errs) < 10 {
			p.errs = append(p.errs, e)
		}
	}
}

// metric is one reported figure with the number of samples behind it.
type metric struct {
	name  string
	value float64
	unit  string
	n     int64
}

// replyGrace is how long past its measured interval a closed loop may
// take to finish before the missing reply is reported.
const replyGrace = time.Minute

// waitOrDie waits for wg. A client whose reply never comes would hang
// the run, so past d plus replyGrace it reports the failed check and
// exits.
func waitOrDie(wg *sync.WaitGroup, d time.Duration, what string) {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d + replyGrace):
		fmt.Println("check failed:", what)
		fmt.Println(`{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}`)
		os.Exit(1)
	}
}

// eachClient runs fn once per client, each on its own goroutine, and
// merges their tallies; d is the measured interval waitOrDie extends.
func eachClient(n int, d time.Duration, what string, fn func(i int, p *phase)) *phase {
	parts := make([]phase, n)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i, &parts[i])
		}(i)
	}
	waitOrDie(&wg, d, what)
	total := &phase{elapsed: time.Since(start)}
	for i := range parts {
		total.absorb(&parts[i])
	}
	return total
}

func main() {
	name := flag.String("workload", "", "workload: alloc-defer, session-read, session-churn or http-session")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ledger")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n",
			*name, *seconds, *traceMode)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(vcpus)
	// Lock waits are profiled only inside traced phases.
	runtime.SetMutexProfileFraction(0)
	d := time.Duration(*seconds) * time.Second

	fmt.Printf("context: workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d nproc=%d go=%s arena=%s allocator=%s reclamation=%s vcpus=%d\n",
		*name, *seed, *seconds, *traceMode, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(),
		stackConfig.Arena, stackConfig.Allocator, stackConfig.Reclamation, vcpus)

	var (
		metrics []metric
		p       *phase
		errs    []string
	)
	if *traceMode == 0 {
		metrics, p, errs = endToEnd(mk, *seed, d)
	} else {
		metrics, p, errs = traced(mk, *seed, d)
	}
	for _, m := range metrics {
		fmt.Printf("metric %-36s %14.6g %-10s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	for _, e := range errs {
		fmt.Println("check failed:", e)
	}
	correct := len(errs) == 0
	failed := p.failed
	if !correct && failed == 0 {
		failed = 1
	}
	out := map[string]any{
		"correct":   correct,
		"attempted": max(p.attempted, 1),
		"failed":    failed,
		"metrics":   jsonMetrics(metrics),
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

// endToEnd measures rounds fresh stacks untraced, d/rounds each.
func endToEnd(mk func(uint64) workload, seed uint64, d time.Duration) ([]metric, *phase, []string) {
	var (
		setups, tput, p50, p99, peak []float64
		errs                         []string
		nlat                         int64
	)
	total := &phase{}
	for r := 0; r < rounds; r++ {
		w := mk(seed)
		start := time.Now()
		if err := w.setup(); err != nil {
			return nil, total, append(errs, "setup: "+err.Error())
		}
		setups = append(setups, time.Since(start).Seconds())
		p := w.run(d / rounds)
		errs = append(append(errs, p.errs...), w.close()...)
		lat := p.lat.sorted()
		tput = append(tput, p.opsPerSec())
		p50 = append(p50, float64(lat.percentile(0.50))/1e3)
		p99 = append(p99, float64(lat.percentile(0.99))/1e3)
		peak = append(peak, float64(p.peakUsed)/(1<<20))
		nlat += int64(len(lat))
		fmt.Printf("round %d: setup_s=%.4f ops_per_s=%.0f latency_p50_us=%.3f latency_p99_us=%.3f peak_used_mib=%.3f n=%d\n",
			r, setups[r], tput[r], p50[r], p99[r], peak[r], len(lat))
		p.lat = nil
		total.absorb(p)
	}
	failedShare := float64(total.failed) / float64(max(total.attempted, 1))
	return []metric{
		{"setup_s", median(setups), "s", rounds},
		{"ops_per_s", median(tput), "1/s", total.ops},
		{"latency_p50_us", median(p50), "us", nlat},
		{"latency_p99_us", median(p99), "us", nlat},
		{"peak_used_mib", median(peak), "MiB", nlat},
		{"ok_share", 1 - failedShare, "share", total.attempted},
		{"failed_share", failedShare, "share", total.attempted},
	}, total, errs
}

// traced sets the stack up once and runs the workload's traced phases.
func traced(mk func(uint64) workload, seed uint64, d time.Duration) ([]metric, *phase, []string) {
	w := mk(seed)
	if err := w.setup(); err != nil {
		return nil, &phase{}, []string{"setup: " + err.Error()}
	}
	l := newLedger()
	p := w.trace(d, l)
	errs := append(p.errs, w.close()...)
	return l.metrics(), p, errs
}

// jsonMetrics keeps the metrics the benchmark contract names: the
// failure share is reported through ok_share and the top-level counts.
func jsonMetrics(ms []metric) map[string]any {
	out := map[string]any{}
	for _, m := range ms {
		if m.name == "failed_share" {
			continue
		}
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return out
}
