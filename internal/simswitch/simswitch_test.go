package simswitch

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sched/fifosched"
	"repro/internal/sched/registry"
	"repro/internal/traffic"
)

func voqConfig(n int, load float64, seed uint64, s sched.Scheduler) Config {
	return Config{
		N:            n,
		Mode:         VOQ,
		Scheduler:    s,
		Gen:          traffic.NewBernoulli(n, load, traffic.NewUniform(n), seed),
		WarmupSlots:  500,
		MeasureSlots: 3000,
		Validate:     true,
	}
}

func TestNormalizeDefaults(t *testing.T) {
	cfg := voqConfig(4, 0.5, 1, core.NewCentral(4, true))
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	if cfg.VOQCap != 256 || cfg.PQCap != 1000 || cfg.OutBufCap != 256 {
		t.Fatalf("defaults %d/%d/%d, want the paper's 256/1000/256", cfg.VOQCap, cfg.PQCap, cfg.OutBufCap)
	}
}

func TestNormalizeErrors(t *testing.T) {
	base := func() Config { return voqConfig(4, 0.5, 1, core.NewCentral(4, true)) }
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero ports", func(c *Config) { c.N = 0 }},
		{"no generator", func(c *Config) { c.Gen = nil }},
		{"generator size", func(c *Config) { c.Gen = traffic.NewBernoulli(5, 0.5, traffic.NewUniform(5), 1) }},
		{"no scheduler", func(c *Config) { c.Scheduler = nil }},
		{"scheduler size", func(c *Config) { c.Scheduler = core.NewCentral(5, true) }},
		{"negative voq", func(c *Config) { c.VOQCap = -1 }},
		{"no measure slots", func(c *Config) { c.MeasureSlots = 0 }},
		{"negative warmup", func(c *Config) { c.WarmupSlots = -1 }},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mut(&cfg)
		if err := cfg.Normalize(); err == nil {
			t.Errorf("%s: Normalize accepted bad config", tc.name)
		}
	}
	// OutputBuffered needs no scheduler.
	cfg := base()
	cfg.Mode = OutputBuffered
	cfg.Scheduler = nil
	if err := cfg.Normalize(); err != nil {
		t.Errorf("outbuf without scheduler rejected: %v", err)
	}
}

func TestModeString(t *testing.T) {
	if VOQ.String() != "voq" || FIFO.String() != "fifo" || OutputBuffered.String() != "outbuf" {
		t.Fatal("Mode strings")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode string empty")
	}
}

// TestSinglePacketDelayIsOne pins the timing convention: a lone packet
// generated in slot t departs in slot t+1 for every organization.
func TestSinglePacketDelayIsOne(t *testing.T) {
	arrivals := [][]int{{1, traffic.NoPacket}} // slot 0: input 0 → output 1
	for _, mode := range []Mode{VOQ, FIFO, OutputBuffered} {
		var s sched.Scheduler
		switch mode {
		case VOQ:
			s = core.NewCentral(2, true)
		case FIFO:
			s = fifosched.New(2)
		}
		res, err := Run(Config{
			N: 2, Mode: mode, Scheduler: s,
			Gen:          traffic.NewTrace(2, arrivals),
			WarmupSlots:  0,
			MeasureSlots: 10,
			Validate:     true,
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Delay.Count() != 1 {
			t.Fatalf("%v: measured %d packets, want 1", mode, res.Delay.Count())
		}
		if res.Delay.Mean() != 1 {
			t.Fatalf("%v: delay %g, want 1", mode, res.Delay.Mean())
		}
	}
}

// TestConservation checks generated = forwarded + dropped + still queued
// across random configurations — the global sanity property of the whole
// simulator.
func TestConservation(t *testing.T) {
	names := registry.Names()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(8) + 2
		name := names[r.Intn(len(names))]
		s, err := registry.New(name, n, sched.Options{Iterations: 2, Seed: uint64(seed)})
		if err != nil {
			t.Fatal(err)
		}
		mode := VOQ
		if name == "fifo" {
			mode = FIFO
		}
		res, err := Run(Config{
			N: n, Mode: mode, Scheduler: s,
			Gen:          traffic.NewBernoulli(n, r.Float64(), traffic.NewUniform(n), uint64(seed)),
			WarmupSlots:  0, // measure from slot 0 so the books balance
			MeasureSlots: 2000,
			VOQCap:       r.Intn(8) + 1, // tiny queues force drops and blocking
			PQCap:        r.Intn(20) + 1,
			Validate:     true,
		})
		if err != nil {
			t.Logf("%s: %v", name, err)
			return false
		}
		balance := res.Counters.Generated - res.Counters.Forwarded -
			res.Counters.DroppedPQ - int64(res.StillQueued)
		if balance != 0 {
			t.Logf("%s n=%d: gen %d = fwd %d + drop %d + queued %d (off by %d)",
				name, n, res.Counters.Generated, res.Counters.Forwarded,
				res.Counters.DroppedPQ, res.StillQueued, balance)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestConservationOutputBuffered(t *testing.T) {
	res, err := Run(Config{
		N: 4, Mode: OutputBuffered,
		Gen:          traffic.NewBernoulli(4, 0.9, traffic.NewUniform(4), 3),
		WarmupSlots:  0,
		MeasureSlots: 5000,
		OutBufCap:    4, // small, to exercise blocking back into the PQ
		PQCap:        8,
	})
	if err != nil {
		t.Fatal(err)
	}
	balance := res.Counters.Generated - res.Counters.Forwarded -
		res.Counters.DroppedPQ - int64(res.StillQueued)
	if balance != 0 {
		t.Fatalf("conservation violated by %d", balance)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() *Result {
		res, err := Run(voqConfig(8, 0.8, 42, core.NewCentral(8, true)))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Delay.Count() != b.Delay.Count() || a.Delay.Mean() != b.Delay.Mean() {
		t.Fatalf("replay diverged: %d/%g vs %d/%g",
			a.Delay.Count(), a.Delay.Mean(), b.Delay.Count(), b.Delay.Mean())
	}
	if a.Counters != b.Counters {
		t.Fatalf("counters diverged: %+v vs %+v", a.Counters, b.Counters)
	}
}

func TestLowLoadDelayNearOne(t *testing.T) {
	// At 5% load contention is rare: mean delay must be barely above the
	// 1-slot minimum for a good scheduler and for outbuf alike.
	res, err := Run(voqConfig(16, 0.05, 7, core.NewCentral(16, true)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delay.Mean() < 1 || res.Delay.Mean() > 1.3 {
		t.Fatalf("low-load VOQ delay %g, want ≈1", res.Delay.Mean())
	}
	ob, err := Run(Config{
		N: 16, Mode: OutputBuffered,
		Gen:         traffic.NewBernoulli(16, 0.05, traffic.NewUniform(16), 7),
		WarmupSlots: 500, MeasureSlots: 3000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ob.Delay.Mean() < 1 || ob.Delay.Mean() > 1.3 {
		t.Fatalf("low-load outbuf delay %g, want ≈1", ob.Delay.Mean())
	}
}

func TestFIFOWorseThanVOQAtHighLoad(t *testing.T) {
	// Head-of-line blocking: at load 0.7 (above the ≈0.586 FIFO saturation
	// point) the FIFO switch must deliver materially less throughput than
	// an LCF-scheduled VOQ switch.
	fifoRes, err := Run(Config{
		N: 16, Mode: FIFO, Scheduler: fifosched.New(16),
		Gen:         traffic.NewBernoulli(16, 0.7, traffic.NewUniform(16), 5),
		WarmupSlots: 2000, MeasureSlots: 10000,
		Validate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	voqRes, err := Run(Config{
		N: 16, Mode: VOQ, Scheduler: core.NewCentral(16, true),
		Gen:         traffic.NewBernoulli(16, 0.7, traffic.NewUniform(16), 5),
		WarmupSlots: 2000, MeasureSlots: 10000,
		Validate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fifoRes.Counters.Throughput() >= voqRes.Counters.Throughput() {
		t.Fatalf("fifo throughput %g not below voq %g",
			fifoRes.Counters.Throughput(), voqRes.Counters.Throughput())
	}
	if fifoRes.Counters.Throughput() > 0.62 {
		t.Fatalf("fifo throughput %g above the HOL-blocking bound ≈0.586+slack",
			fifoRes.Counters.Throughput())
	}
	if voqRes.Counters.Throughput() < 0.68 {
		t.Fatalf("voq/lcf throughput %g below offered load 0.7", voqRes.Counters.Throughput())
	}
}

func TestDelayCI95Populated(t *testing.T) {
	// A long run at moderate load completes many 2000-packet batches: the
	// CI must be finite, positive, and small relative to the mean.
	cfg := voqConfig(16, 0.7, 61, core.NewCentral(16, true))
	cfg.WarmupSlots = 2000
	cfg.MeasureSlots = 20000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DelayCI95 <= 0 || res.DelayCI95 > res.Delay.Mean()/2 {
		t.Fatalf("DelayCI95 = %g with mean %g", res.DelayCI95, res.Delay.Mean())
	}
	// A tiny run cannot form two batches: CI must be +Inf, not a lie.
	tiny := voqConfig(4, 0.3, 61, core.NewCentral(4, true))
	tiny.WarmupSlots = 0
	tiny.MeasureSlots = 100
	res, err = Run(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.DelayCI95, 1) {
		t.Fatalf("short-run DelayCI95 = %g, want +Inf", res.DelayCI95)
	}
}

func TestHistogramCollected(t *testing.T) {
	cfg := voqConfig(4, 0.5, 9, core.NewCentral(4, true))
	cfg.HistogramBuckets = 64
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hist == nil || res.Hist.Total() != res.Delay.Count() {
		t.Fatalf("histogram total %v vs delay count %d", res.Hist, res.Delay.Count())
	}
	if res.Hist.Quantile(0.5) < 1 {
		t.Fatal("median delay below the 1-slot minimum")
	}
}

func TestTraceCallback(t *testing.T) {
	cfg := voqConfig(4, 0.9, 11, core.NewCentral(4, true))
	cfg.WarmupSlots = 0
	cfg.MeasureSlots = 50
	slots := 0
	moved := 0
	cfg.Trace = func(ev TraceEvent) {
		slots++
		moved += ev.Moved
		if ev.Requests == nil || ev.Match == nil || ev.Grants == nil {
			t.Fatal("trace event missing views")
		}
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if slots != 50 {
		t.Fatalf("trace fired %d times, want 50", slots)
	}
	if int64(moved) != res.Counters.Forwarded {
		t.Fatalf("trace moved %d vs forwarded %d", moved, res.Counters.Forwarded)
	}
}

// TestQueueLensProvidedToLQF: the switchcore datapath always populates
// sched.Context.QueueLens, so LQF gets real backlogs with no opt-in flag.
func TestQueueLensProvidedToLQF(t *testing.T) {
	s, err := registry.New("lqf", 8, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(voqConfig(8, 0.9, 13, s)); err != nil {
		t.Fatal(err)
	}
}

func TestMaxVOQLenTracked(t *testing.T) {
	cfg := voqConfig(4, 1.0, 15, core.NewCentral(4, true))
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxVOQLen < 1 {
		t.Fatalf("MaxVOQLen = %d at full load", res.MaxVOQLen)
	}
}

func TestAllFigure12SchedulersRun(t *testing.T) {
	for _, name := range registry.Figure12Names() {
		s, err := registry.New(name, 8, sched.Options{Iterations: 4, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		mode := VOQ
		if name == "fifo" {
			mode = FIFO
		}
		res, err := Run(Config{
			N: 8, Mode: mode, Scheduler: s,
			Gen:         traffic.NewBernoulli(8, 0.6, traffic.NewUniform(8), 2),
			WarmupSlots: 500, MeasureSlots: 2000,
			Validate: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Delay.Count() == 0 {
			t.Fatalf("%s: no packets measured", name)
		}
		if res.SchedulerName != name {
			t.Fatalf("result labelled %q, want %q", res.SchedulerName, name)
		}
	}
}

// TestPerFlowFIFOOrder: the switch must never reorder packets of the same
// (input, output) flow — VOQs are FIFO and the fabric moves at most one
// packet per flow per slot. Packet IDs are assigned in generation order,
// so per-flow departures must carry strictly increasing IDs. Checked
// across every Figure 12 scheduler via the departure trace.
func TestPerFlowFIFOOrder(t *testing.T) {
	for _, name := range registry.Figure12Names() {
		s, err := registry.New(name, 8, sched.Options{Iterations: 4, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		mode := VOQ
		if name == "fifo" {
			mode = FIFO
		}
		type key struct{ src, dst int }
		lastID := map[key]uint64{}
		violations := 0
		_, err = Run(Config{
			N: 8, Mode: mode, Scheduler: s,
			Gen:          traffic.NewBernoulli(8, 0.95, traffic.NewUniform(8), 3),
			WarmupSlots:  0,
			MeasureSlots: 3000,
			Validate:     true,
			Trace: func(ev TraceEvent) {
				for _, d := range ev.Departures {
					k := key{d.Src, d.Dst}
					if d.ID <= lastID[k] {
						violations++
					}
					lastID[k] = d.ID
				}
			},
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if violations > 0 {
			t.Fatalf("%s: %d per-flow reorderings observed", name, violations)
		}
		if len(lastID) == 0 {
			t.Fatalf("%s: no departures traced", name)
		}
	}
}

func TestSpeedupValidation(t *testing.T) {
	cfg := voqConfig(4, 0.5, 1, core.NewCentral(4, true))
	cfg.Speedup = -1
	if err := cfg.Normalize(); err == nil {
		t.Fatal("negative speedup accepted")
	}
	cfg = voqConfig(4, 0.5, 1, core.NewCentral(4, true))
	cfg.Mode = OutputBuffered
	cfg.Scheduler = nil
	cfg.Speedup = 2
	if err := cfg.Normalize(); err == nil {
		t.Fatal("speedup on outbuf accepted")
	}
}

// TestSpeedupApproachesOutputQueueing is the CIOQ extension result: a
// speedup-2 VOQ switch with any maximal matcher tracks the
// output-buffered delay closely, where speedup 1 shows a visible gap.
func TestSpeedupApproachesOutputQueueing(t *testing.T) {
	run := func(speedup int) float64 {
		cfg := voqConfig(16, 0.9, 21, core.NewCentral(16, true))
		cfg.Speedup = speedup
		cfg.WarmupSlots = 3000
		cfg.MeasureSlots = 15000
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Delay.Mean()
	}
	ob, err := Run(Config{
		N: 16, Mode: OutputBuffered,
		Gen:         traffic.NewBernoulli(16, 0.9, traffic.NewUniform(16), 21),
		WarmupSlots: 3000, MeasureSlots: 15000,
	})
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := run(1), run(2)
	obd := ob.Delay.Mean()
	if s2 >= s1 {
		t.Fatalf("speedup 2 delay %.3f not below speedup 1 %.3f", s2, s1)
	}
	// Speedup 2 must close most of the gap to output queueing.
	if (s2-obd)/(s1-obd) > 0.5 {
		t.Fatalf("speedup 2 closes too little of the gap: s1=%.3f s2=%.3f ob=%.3f", s1, s2, obd)
	}
	// Conservation still holds with speedup (measure from slot 0).
	cfg := voqConfig(8, 0.95, 33, core.NewCentral(8, true))
	cfg.Speedup = 2
	cfg.WarmupSlots = 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	balance := res.Counters.Generated - res.Counters.Forwarded -
		res.Counters.DroppedPQ - int64(res.StillQueued)
	if balance != 0 {
		t.Fatalf("speedup conservation violated by %d", balance)
	}
}

// TestChoiceHypothesis is experiment E24: the paper's explanation for the
// lcf_central_rr crossover above load 0.9 — "the round robin algorithm …
// is leveling the lengths of the VOQs thereby maintaining choice by
// avoiding the VOQs to drain" — tested on live runs at load 0.97.
func TestChoiceHypothesis(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	run := func(rr bool, seed uint64) (*Result, error) {
		return Run(voqConfigLong(16, 0.97, seed, rr))
	}
	var choicePure, choiceRR, spreadPure, spreadRR, delayPure, delayRR float64
	for seed := uint64(0); seed < 3; seed++ {
		p, err := run(false, 200+seed)
		if err != nil {
			t.Fatal(err)
		}
		r, err := run(true, 200+seed)
		if err != nil {
			t.Fatal(err)
		}
		choicePure += p.Choice.Mean()
		choiceRR += r.Choice.Mean()
		spreadPure += p.VOQSpread.Mean()
		spreadRR += r.VOQSpread.Mean()
		delayPure += p.Delay.Mean()
		delayRR += r.Delay.Mean()
	}
	// The hypothesis: +RR keeps more VOQs non-empty (more choice) with a
	// more even length distribution (lower spread), and that is what buys
	// the lower delay beyond the crossover.
	if choiceRR <= choicePure {
		t.Errorf("choice hypothesis: RR mean occupied VOQs %.2f not above pure %.2f",
			choiceRR/3, choicePure/3)
	}
	if spreadRR >= spreadPure {
		t.Errorf("leveling hypothesis: RR VOQ-length spread %.2f not below pure %.2f",
			spreadRR/3, spreadPure/3)
	}
	if delayRR >= delayPure {
		t.Errorf("crossover: RR delay %.2f not below pure %.2f at load 0.97",
			delayRR/3, delayPure/3)
	}
}

func voqConfigLong(n int, load float64, seed uint64, rr bool) Config {
	return Config{
		N:            n,
		Mode:         VOQ,
		Scheduler:    core.NewCentral(n, rr),
		Gen:          traffic.NewBernoulli(n, load, traffic.NewUniform(n), seed),
		WarmupSlots:  5000,
		MeasureSlots: 20000,
	}
}

func TestPipelineValidation(t *testing.T) {
	cfg := voqConfig(4, 0.5, 1, core.NewCentral(4, true))
	cfg.PipelineDepth = -1
	if err := cfg.Normalize(); err == nil {
		t.Fatal("negative pipeline depth accepted")
	}
	cfg = voqConfig(4, 0.5, 1, core.NewCentral(4, true))
	cfg.Mode = OutputBuffered
	cfg.Scheduler = nil
	cfg.PipelineDepth = 2
	if err := cfg.Normalize(); err == nil {
		t.Fatal("pipelined outbuf accepted")
	}
	cfg = voqConfig(4, 0.5, 1, core.NewCentral(4, true))
	cfg.PipelineDepth = 2
	cfg.Speedup = 2
	if err := cfg.Normalize(); err == nil {
		t.Fatal("pipeline+speedup accepted")
	}
}

// TestPipelineAddsLatencyNotThroughputLoss reproduces the paper's
// Section 1 remark: pipelining relaxes the scheduler's timing without
// hurting throughput much, but the pipeline latency adds to every
// packet's delay.
func TestPipelineAddsLatencyNotThroughputLoss(t *testing.T) {
	run := func(depth int) *Result {
		cfg := voqConfig(16, 0.8, 41, core.NewCentral(16, true))
		cfg.PipelineDepth = depth
		cfg.WarmupSlots = 2000
		cfg.MeasureSlots = 15000
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	d1, d3 := run(1), run(3)
	// Delay grows by roughly the extra pipeline stages (2 slots here).
	extra := d3.Delay.Mean() - d1.Delay.Mean()
	if extra < 1.0 || extra > 4.0 {
		t.Fatalf("depth-3 pipeline added %.2f slots of delay, want ≈2", extra)
	}
	// Throughput stays at the offered load.
	if d3.Counters.Throughput() < 0.78 {
		t.Fatalf("pipelined throughput %.3f below offered 0.8", d3.Counters.Throughput())
	}
	if d1.WastedGrants != 0 {
		t.Fatalf("unpipelined run wasted %d grants", d1.WastedGrants)
	}
}

// TestPipelineSinglePacketDelay pins the timing: with depth L, a lone
// packet's delay is L slots (scheduled at t+1, applied at t+L).
func TestPipelineSinglePacketDelay(t *testing.T) {
	for _, depth := range []int{1, 2, 4} {
		res, err := Run(Config{
			N: 2, Mode: VOQ, Scheduler: core.NewCentral(2, true),
			Gen:           traffic.NewTrace(2, [][]int{{1, traffic.NoPacket}}),
			WarmupSlots:   0,
			MeasureSlots:  20,
			PipelineDepth: depth,
			Validate:      true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Delay.Count() != 1 {
			t.Fatalf("depth %d: %d packets measured", depth, res.Delay.Count())
		}
		if got := res.Delay.Mean(); got != float64(depth) {
			t.Fatalf("depth %d: delay %g, want %d", depth, got, depth)
		}
	}
}

// TestPipelineReservationsPreventWaste: the pipelined requester masks
// requests already covered by in-flight grants (as a Clint host does), so
// no grant ever matures onto a drained VOQ and conservation holds.
func TestPipelineReservationsPreventWaste(t *testing.T) {
	cfg := voqConfig(8, 0.9, 51, core.NewCentral(8, true))
	cfg.PipelineDepth = 4
	cfg.WarmupSlots = 0
	cfg.MeasureSlots = 5000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.WastedGrants != 0 {
		t.Fatalf("%d wasted grants despite reservation-aware requests", res.WastedGrants)
	}
	balance := res.Counters.Generated - res.Counters.Forwarded -
		res.Counters.DroppedPQ - int64(res.StillQueued)
	if balance != 0 {
		t.Fatalf("pipelined conservation violated by %d", balance)
	}
}

func benchmarkSimSlot(b *testing.B, n int) {
	s, err := New(Config{
		N: n, Mode: VOQ, Scheduler: core.NewCentral(n, true),
		Gen:          traffic.NewBernoulli(n, 0.9, traffic.NewUniform(n), 1),
		WarmupSlots:  0,
		MeasureSlots: 1 << 62,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.step(); err != nil {
			b.Fatal(err)
		}
		s.now++
	}
}

func BenchmarkSimSlotLCFCentral16Load09(b *testing.B)  { benchmarkSimSlot(b, 16) }
func BenchmarkSimSlotLCFCentral64Load09(b *testing.B)  { benchmarkSimSlot(b, 64) }
func BenchmarkSimSlotLCFCentral256Load09(b *testing.B) { benchmarkSimSlot(b, 256) }
