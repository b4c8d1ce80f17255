// Package lcf is a from-scratch reproduction of "The Least Choice First
// Scheduling Method for High-Speed Network Switches" (Gura & Eberle,
// IPPS/IPDPS 2002): the LCF crossbar scheduler in its central and
// distributed forms, every comparison scheduler of the paper's evaluation
// (PIM, iSLIP, wave front arbiter, FIFO, output buffering), the
// slot-based input-queued switch simulator behind Figure 12, the hardware
// cost and timing models behind Tables 1 and 2, and the Clint bulk/quick
// channel protocol of Section 4.
//
// This package is the public facade: it re-exports the pieces a
// downstream user needs without reaching into internal packages.
//
// # Quick start
//
//	s, _ := lcf.NewScheduler("lcf_central_rr", 16, lcf.Options{})
//	res, _ := lcf.Simulate(lcf.SimConfig{
//		N:         16,
//		Scheduler: s,
//		Load:      0.9,
//		Seed:      1,
//	})
//	fmt.Printf("mean queuing delay: %.2f slots\n", res.Delay.Mean())
//
// See the package Examples for runnable walk-throughs, cmd/ for the
// programs and EXPERIMENTS.md for the mapping from the paper's tables and
// figures to this repository's harnesses.
package lcf

import (
	"fmt"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/matching"
	switchruntime "repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/sched/registry"
	"repro/internal/simswitch"
	"repro/internal/switchcore"
	"repro/internal/traffic"
)

// Options re-exports the scheduler tunables (iteration bound for the
// iterative schedulers, RNG seed for the randomized ones).
type Options = sched.Options

// Scheduler is the per-slot matching engine interface.
type Scheduler = sched.Scheduler

// Match is a conflict-free input/output pairing for one slot.
type Match = matching.Match

// RequestMatrix is an n×n bit matrix; bit (i,j) means input i has at least
// one packet queued for output j.
type RequestMatrix = bitvec.Matrix

// Unmatched marks an unpaired port in a Match.
const Unmatched = matching.Unmatched

// NewScheduler builds a scheduler by its evaluation name. Valid names are
// the paper's Figure 12 labels — "lcf_central", "lcf_central_rr",
// "lcf_dist", "lcf_dist_rr", "pim", "islip", "wfront", "fifo" — plus the
// reference schedulers "maxsize", "lqf" and the fairness-ablation variant
// "lcf_central_rrpre".
func NewScheduler(name string, n int, opt Options) (Scheduler, error) {
	return registry.New(name, n, opt)
}

// SchedulerNames returns all registered scheduler names.
func SchedulerNames() []string { return registry.Names() }

// Datapath organization names for SimConfig.Datapath and
// RuntimeConfig.Datapath.
const (
	// DatapathVOQ is the paper's virtual-output-queued switch with a
	// central per-slot matching.
	DatapathVOQ = switchcore.DatapathVOQ
	// DatapathCICQ is the crosspoint-buffered switch: bounded buffers at
	// every (input, output) crosspoint, decoupled per-input dispatch and
	// per-output pull arbiters applying the least-choice rule locally.
	DatapathCICQ = switchcore.DatapathCICQ
)

// Figure12Schedulers returns the scheduler labels of the paper's Figure 12
// in legend order (excluding the "outbuf" switch organization).
func Figure12Schedulers() []string { return registry.Figure12Names() }

// NewRequestMatrix returns a zeroed n×n request matrix.
func NewRequestMatrix(n int) *RequestMatrix { return bitvec.NewMatrix(n) }

// NewMatch returns an empty match for an n-port switch.
func NewMatch(n int) *Match { return matching.NewMatch(n) }

// ctxPool recycles the one-field context wrapper Schedule hands to the
// scheduler interface. Without it every facade call heap-allocates the
// wrapper (the interface call makes it escape), which is the difference
// between 0 and 1 allocs/op on the per-slot hot path.
var ctxPool = sync.Pool{New: func() any { return new(sched.Context) }}

// Schedule runs one scheduling decision outside a simulation: it fills m
// with scheduler s's matching for the request matrix req. Use this to
// drive a scheduler step by step (see ExampleSchedule). It does not
// allocate.
func Schedule(s Scheduler, req *RequestMatrix, m *Match) {
	ctx := ctxPool.Get().(*sched.Context)
	ctx.Req = req
	s.Schedule(ctx, m)
	ctx.Req = nil
	ctxPool.Put(ctx)
}

// ValidateMatch checks that m is conflict-free and only grants requested
// pairs.
func ValidateMatch(m *Match, req *RequestMatrix) error {
	return matching.Validate(m, sched.AsRequests(req))
}

// CentralRRMode re-exports the round-robin density ablation of the
// central scheduler (Section 3's fairness range 0..b/n).
type CentralRRMode = core.RRMode

// Round-robin density modes for NewCentralLCF.
const (
	RRNone         = core.RRNone
	RRInterleaved  = core.RRInterleaved
	RRPrescheduled = core.RRPrescheduled
)

// NewCentralLCF builds a central LCF scheduler with an explicit
// round-robin mode.
func NewCentralLCF(n int, mode CentralRRMode) Scheduler {
	return core.NewCentralRR(n, mode)
}

// NewDistLCF builds a distributed (iterative) LCF scheduler.
func NewDistLCF(n, iterations int, roundRobin bool) Scheduler {
	return core.NewDist(n, iterations, roundRobin)
}

// TrafficPattern names the built-in arrival processes.
type TrafficPattern string

// Built-in traffic patterns.
const (
	Uniform     TrafficPattern = "uniform"
	Hotspot     TrafficPattern = "hotspot"
	Diagonal    TrafficPattern = "diagonal"
	LogDiagonal TrafficPattern = "logdiagonal"
	Bursty      TrafficPattern = "bursty"
)

// SimConfig parameterizes a single simulation run through the facade.
// Zero values default to the paper's Figure 12 settings (VOQ capacity 256,
// PQ capacity 1000, 256-entry output buffers, uniform Bernoulli traffic,
// 10k warmup and 50k measured slots).
type SimConfig struct {
	N         int
	Scheduler Scheduler // nil selects the output-buffered reference switch
	Load      float64
	Seed      uint64

	// Datapath selects the switch datapath organization: "" or
	// DatapathVOQ follows the Scheduler as documented on Simulate;
	// DatapathCICQ selects the crosspoint-buffered switch, whose
	// distributed arbiters embed the least-choice rule (Scheduler must
	// be nil).
	Datapath string
	// XPCap bounds each crosspoint buffer (DatapathCICQ only; 0 takes
	// the default).
	XPCap int

	Pattern     TrafficPattern
	MeanBurst   float64 // Bursty only; default traffic.DefaultMeanBurst (16)
	HotspotFrac float64 // Hotspot only; default traffic.DefaultHotspotFrac (0.5)

	VOQCap       int
	PQCap        int
	OutBufCap    int
	WarmupSlots  int64
	MeasureSlots int64

	// Speedup runs the scheduler and fabric that many times per slot with
	// per-output smoothing buffers (CIOQ); 0/1 = the paper's plain
	// input-queued switch.
	Speedup int

	// PipelineDepth delays the application of each schedule by
	// PipelineDepth−1 slots (Clint's overlap of scheduling and transfer,
	// Figure 5); 0/1 = immediate.
	PipelineDepth int

	// HistogramBuckets enables a delay histogram with that many unit
	// buckets on the result (for percentile reporting); 0 disables.
	HistogramBuckets int
}

// SimResult is the outcome of one run.
type SimResult = simswitch.Result

// Simulate runs one switch simulation. The switch organization follows
// the scheduler: nil → output-buffered, a "fifo" scheduler → single input
// FIFOs, anything else → virtual output queues.
func Simulate(cfg SimConfig) (*SimResult, error) {
	if cfg.N == 0 {
		cfg.N = 16
	}
	if cfg.Load < 0 || cfg.Load > 1 {
		return nil, fmt.Errorf("lcf: load %g out of [0,1]", cfg.Load)
	}
	if cfg.WarmupSlots == 0 {
		cfg.WarmupSlots = 10000
	}
	if cfg.MeasureSlots == 0 {
		cfg.MeasureSlots = 50000
	}
	if cfg.Pattern == "" {
		cfg.Pattern = Uniform
	}
	gen, err := traffic.NewPattern(string(cfg.Pattern), cfg.N, cfg.Load,
		traffic.Params{HotspotFrac: cfg.HotspotFrac, MeanBurst: cfg.MeanBurst}, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("lcf: %w", err)
	}

	simCfg := simswitch.Config{
		N:                cfg.N,
		Scheduler:        cfg.Scheduler,
		Gen:              gen,
		VOQCap:           cfg.VOQCap,
		PQCap:            cfg.PQCap,
		OutBufCap:        cfg.OutBufCap,
		XPCap:            cfg.XPCap,
		WarmupSlots:      cfg.WarmupSlots,
		MeasureSlots:     cfg.MeasureSlots,
		Speedup:          cfg.Speedup,
		PipelineDepth:    cfg.PipelineDepth,
		HistogramBuckets: cfg.HistogramBuckets,
	}
	switch {
	case !switchcore.Known(cfg.Datapath):
		return nil, fmt.Errorf("lcf: unknown datapath %q (known: %v)", cfg.Datapath, switchcore.Names())
	case cfg.Datapath == DatapathCICQ:
		if cfg.Scheduler != nil {
			return nil, fmt.Errorf("lcf: the cicq datapath embeds the least-choice rule in its own arbiters; Scheduler must be nil")
		}
		simCfg.Mode = simswitch.CICQ
	case cfg.Scheduler == nil:
		simCfg.Mode = simswitch.OutputBuffered
	case cfg.Scheduler.Name() == "fifo":
		simCfg.Mode = simswitch.FIFO
	default:
		// The VOQ datapath (internal/switchcore) always feeds per-VOQ
		// backlogs to the scheduler, so weight-aware schedulers (lqf)
		// need no special configuration here.
		simCfg.Mode = simswitch.VOQ
	}
	return simswitch.Run(simCfg)
}

// Live switch runtime (internal/runtime): the concurrent engine behind
// cmd/lcfd that serves traffic through a real-time slot loop instead of
// replaying a trace. See the runtime package documentation for the
// admission/arbitration/delivery model and the backpressure contract.
// A frame enters through RuntimeEngine.Offer(RuntimeRequest): one path
// whose optional steer (flow tier) and rank (class tier) stages a request
// switches on by its presence flags; Admit and AdmitClass are its
// fixed-shape forms.
type (
	// RuntimeConfig parameterizes a live engine; SlotPeriod > 0 selects
	// the free-running arbiter, 0 the test-oriented lockstep mode.
	RuntimeConfig = switchruntime.Config
	// RuntimeEngine is one live switch instance.
	RuntimeEngine = switchruntime.Engine
	// RuntimeRequest is one frame offered to RuntimeEngine.Offer; its zero
	// value plus ports is a plain frame, Steered and Classed switch the
	// flow and class stages on.
	RuntimeRequest = switchruntime.Request
	// RuntimeFrame is one cell travelling through the live switch.
	RuntimeFrame = switchruntime.Frame
	// RuntimeSnapshot is the JSON-serializable counter view served by
	// lcfd's metrics endpoint.
	RuntimeSnapshot = switchruntime.Snapshot
	// RuntimeSlotEvent is the per-slot trace callback payload.
	RuntimeSlotEvent = switchruntime.SlotEvent
)

// Live-engine admission errors.
var (
	// ErrBackpressure reports a full VOQ: the frame was refused, the
	// caller should slow down (the paper's finite-buffer model surfaced
	// as flow control).
	ErrBackpressure = switchruntime.ErrBackpressure
	// ErrRuntimeClosed reports admission after Close.
	ErrRuntimeClosed = switchruntime.ErrClosed
)

// NewRuntime builds a live switch engine around any Scheduler.
func NewRuntime(cfg RuntimeConfig) (*RuntimeEngine, error) {
	return switchruntime.New(cfg)
}
