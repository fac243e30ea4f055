package bench

import (
	"fmt"

	"prudence"
	"prudence/internal/server"
	"prudence/internal/server/loadgen"
	"prudence/internal/stats"
)

// ServerConfig parameterizes the long-running-service experiment: the
// cmd/prudence-server session-cache workload driven by its load
// generator, swept across allocator x reclamation-scheme combinations
// so the facade stack is compared under the same churn the standalone
// binary serves.
type ServerConfig struct {
	// CPUs and Pages size the stack (defaults 8 and 16384).
	CPUs  int
	Pages int
	// Arena picks the memory backend ("" = facade default / env).
	Arena string
	// Sessions is the ramp-phase live population; Ops the churn
	// budget (defaults 50000 and 2x Sessions).
	Sessions int
	Ops      int
	// StallEvery forwards slow-loris stalls to the generator
	// (default 2048 churn iterations per stall).
	StallEvery int
	// Seed makes runs reproducible (default 1).
	Seed uint64
	// Allocators and Schemes select the sweep grid (defaults
	// {slub, prudence} x {rcu, nebr}).
	Allocators []prudence.AllocatorKind
	Schemes    []prudence.ReclamationKind
}

func (cfg *ServerConfig) fill() {
	if cfg.CPUs <= 0 {
		cfg.CPUs = 8
	}
	if cfg.Pages <= 0 {
		cfg.Pages = 16384
	}
	if cfg.Sessions <= 0 {
		cfg.Sessions = 50000
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 2 * cfg.Sessions
	}
	if cfg.StallEvery == 0 {
		cfg.StallEvery = 2048
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if len(cfg.Allocators) == 0 {
		cfg.Allocators = []prudence.AllocatorKind{prudence.SLUB, prudence.Prudence}
	}
	if len(cfg.Schemes) == 0 {
		cfg.Schemes = []prudence.ReclamationKind{prudence.RCU, prudence.NEBR}
	}
}

// ServerRun is one cell of the sweep grid.
type ServerRun struct {
	Allocator string
	Scheme    string
	Load      loadgen.Result
	// Server-side peaks and pressure counters for the run.
	PeakLatentBytes int64
	Expedites       uint64
	OOMs            uint64
	BusyRejects     uint64
	GracePeriods    uint64
}

// ServerResult holds the full sweep.
type ServerResult struct {
	Runs []ServerRun
}

// RunServer stands a fresh server stack up for every allocator/scheme
// pair, drives the seeded load-generator mix (connect/disconnect
// storms, hot-key skew, DoS flood cycles, slow-loris stalls) against
// it, and tears the stack down through the full Close path. Any
// shutdown drop or live-session accounting mismatch is an error: the
// experiment doubles as an end-to-end correctness gate.
func RunServer(cfg ServerConfig) (ServerResult, error) {
	cfg.fill()
	var res ServerResult
	for _, alloc := range cfg.Allocators {
		for _, scheme := range cfg.Schemes {
			srv, err := server.New(server.Config{
				CPUs:        cfg.CPUs,
				MemoryPages: cfg.Pages,
				Allocator:   alloc,
				Reclamation: scheme,
				Arena:       prudence.ArenaKind(cfg.Arena),
				Sessions:    cfg.Sessions,
			})
			if err != nil {
				return res, fmt.Errorf("server %s/%s: %w", alloc, scheme, err)
			}
			load := loadgen.Run(srv, loadgen.Config{
				Sessions:   cfg.Sessions,
				Ops:        cfg.Ops,
				StallEvery: cfg.StallEvery,
				Seed:       cfg.Seed,
			})
			run := ServerRun{
				Allocator:       string(alloc),
				Scheme:          string(scheme),
				Load:            load,
				PeakLatentBytes: srv.PeakLatentBytes(),
				Expedites:       srv.Expedites(),
				OOMs:            srv.OOMs(),
				BusyRejects:     srv.BusyRejects(),
				GracePeriods:    srv.System().GracePeriods(),
			}
			srv.Close()
			if load.ShutdownDrops > 0 {
				return res, fmt.Errorf("server %s/%s: %d batches dropped at shutdown",
					alloc, scheme, load.ShutdownDrops)
			}
			if uint64(load.EndLive) != load.Connects-load.Disconnects {
				return res, fmt.Errorf("server %s/%s: live-session accounting broken: end=%d connects-disconnects=%d",
					alloc, scheme, load.EndLive, load.Connects-load.Disconnects)
			}
			res.Runs = append(res.Runs, run)
		}
	}
	return res, nil
}

// Table renders the sweep.
func (r ServerResult) Table() string {
	t := stats.NewTable("alloc", "scheme", "sessions", "ops/s", "p50", "p99", "p999",
		"latent peak", "expedites", "ooms")
	for _, run := range r.Runs {
		t.AddRow(run.Allocator, run.Scheme,
			run.Load.SessionsTotal,
			fmt.Sprintf("%.0f", run.Load.ThroughputOps),
			run.Load.P50, run.Load.P99, run.Load.P999,
			fmt.Sprintf("%dB", run.PeakLatentBytes),
			run.Expedites, run.OOMs)
	}
	return "server: session-cache service under churn + stalls\n" + t.String()
}

// Records flattens the sweep for -json.
func (r ServerResult) Records() []Record {
	var out []Record
	for _, run := range r.Runs {
		q := fmt.Sprintf("{alloc=%s,scheme=%s}", run.Allocator, run.Scheme)
		out = append(out,
			Record{Exp: "server", Metric: "sessions_total" + q, Value: float64(run.Load.SessionsTotal), Unit: "sessions"},
			Record{Exp: "server", Metric: "peak_live_sessions" + q, Value: float64(run.Load.PeakLive), Unit: "sessions"},
			Record{Exp: "server", Metric: "ops_total" + q, Value: float64(run.Load.OpsTotal), Unit: "ops"},
			Record{Exp: "server", Metric: "throughput" + q, Value: run.Load.ThroughputOps, Unit: "ops/s"},
			Record{Exp: "server", Metric: "latency_p50" + q, Value: run.Load.P50.Seconds() * 1e6, Unit: "us"},
			Record{Exp: "server", Metric: "latency_p99" + q, Value: run.Load.P99.Seconds() * 1e6, Unit: "us"},
			Record{Exp: "server", Metric: "latency_p999" + q, Value: run.Load.P999.Seconds() * 1e6, Unit: "us"},
			Record{Exp: "server", Metric: "latent_bytes_peak" + q, Value: float64(run.PeakLatentBytes), Unit: "bytes"},
			Record{Exp: "server", Metric: "expedites" + q, Value: float64(run.Expedites), Unit: "count"},
			Record{Exp: "server", Metric: "ooms" + q, Value: float64(run.OOMs), Unit: "count"},
			Record{Exp: "server", Metric: "grace_periods" + q, Value: float64(run.GracePeriods), Unit: "count"},
		)
	}
	return out
}
