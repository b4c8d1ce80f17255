package runtime_test

import (
	"testing"

	"repro/internal/flowtable"
	"repro/internal/obs"
	"repro/internal/pifo"
	rt "repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/sched/registry"
	"repro/internal/switchcore"
	"repro/internal/traffic"
)

// tracerMode selects the Tracer configuration for the slot benchmarks:
// absent (the baseline), attached but disabled (the cost of shipping the
// hook), and actively recording.
type tracerMode int

const (
	tracerNone tracerMode = iota
	tracerDisabled
	tracerEnabled
)

// benchmarkSlot measures the full runtime hot path — admit → snapshot →
// schedule → dispatch → consume — per slot, in lockstep so only engine
// work is on the clock (no ticker sleeps). Arrivals are pre-drawn outside
// the timed region.
func benchmarkSlot(b *testing.B, schedName string, n int, load float64, tm tracerMode) {
	s, err := registry.New(schedName, n, sched.Options{Iterations: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var tr *obs.Tracer
	if tm != tracerNone {
		tr = obs.NewTracer(n, 4096)
		tr.SetEnabled(tm == tracerEnabled)
	}
	e, err := rt.New(rt.Config{
		N: n, Scheduler: s, VOQCap: 256, OutCap: 256, Tracer: tr,
	})
	if err != nil {
		b.Fatal(err)
	}
	const traceLen = 4096
	arrivals := make([][]int, traceLen)
	gen := traffic.NewBernoulli(n, load, traffic.NewUniform(n), 3)
	for t := range arrivals {
		row := make([]int, n)
		for i := 0; i < n; i++ {
			row[i] = gen.Next(i)
		}
		gen.Advance()
		arrivals[t] = row
	}

	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		for i, dst := range arrivals[k%traceLen] {
			if dst == traffic.NoPacket {
				continue
			}
			// Backpressure means the sustained load exceeds what the
			// scheduler drains; drop, as a real front-end would.
			_ = e.Admit(i, dst, 0, 0)
		}
		e.Tick()
		for j := 0; j < n; j++ {
			out := e.Output(j)
			for {
				select {
				case <-out:
					continue
				default:
				}
				break
			}
		}
	}
	b.StopTimer()
	e.Close()
}

func BenchmarkEngineSlotLCFRRN16(b *testing.B) {
	benchmarkSlot(b, "lcf_central_rr", 16, 0.9, tracerNone)
}
func BenchmarkEngineSlotLCFRRN64(b *testing.B) {
	benchmarkSlot(b, "lcf_central_rr", 64, 0.9, tracerNone)
}
func BenchmarkEngineSlotLCFRRN256(b *testing.B) {
	benchmarkSlot(b, "lcf_central_rr", 256, 0.9, tracerNone)
}
func BenchmarkEngineSlotISLIPN16(b *testing.B)  { benchmarkSlot(b, "islip", 16, 0.9, tracerNone) }
func BenchmarkEngineSlotISLIPN64(b *testing.B)  { benchmarkSlot(b, "islip", 64, 0.9, tracerNone) }
func BenchmarkEngineSlotISLIPN256(b *testing.B) { benchmarkSlot(b, "islip", 256, 0.9, tracerNone) }

// The widest engine slot on record (EXPERIMENTS.md E30).
func BenchmarkEngineSlotLCFRRN1024(b *testing.B) {
	benchmarkSlot(b, "lcf_central_rr", 1024, 0.9, tracerNone)
}

// benchmarkSlotCICQ is benchmarkSlot on the crosspoint-buffered
// datapath: no central scheduler — the slot's arbitration cost is the n
// dispatch decisions plus the n pull decisions.
func benchmarkSlotCICQ(b *testing.B, n int, load float64) {
	e, err := rt.New(rt.Config{N: n, Datapath: switchcore.DatapathCICQ, VOQCap: 256, OutCap: 256})
	if err != nil {
		b.Fatal(err)
	}
	const traceLen = 4096
	arrivals := make([][]int, traceLen)
	gen := traffic.NewBernoulli(n, load, traffic.NewUniform(n), 3)
	for t := range arrivals {
		row := make([]int, n)
		for i := 0; i < n; i++ {
			row[i] = gen.Next(i)
		}
		gen.Advance()
		arrivals[t] = row
	}

	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		for i, dst := range arrivals[k%traceLen] {
			if dst == traffic.NoPacket {
				continue
			}
			_ = e.Admit(i, dst, 0, 0)
		}
		e.Tick()
		for j := 0; j < n; j++ {
			out := e.Output(j)
			for {
				select {
				case <-out:
					continue
				default:
				}
				break
			}
		}
	}
}

func BenchmarkEngineSlotCICQN64(b *testing.B)  { benchmarkSlotCICQ(b, 64, 0.9) }
func BenchmarkEngineSlotCICQN256(b *testing.B) { benchmarkSlotCICQ(b, 256, 0.9) }

// benchmarkSlotClass is benchmarkSlot through the other admission door:
// the same Bernoulli-uniform arrivals enter via AdmitClass with a
// 1:2:5 rt:quick:bulk mix under the deadline ranker, so the slot also
// pays the PIFO push, the fill phase and the per-class delivery
// accounting. One lap of the arrival trace runs off the clock first:
// the PIFO heaps and VOQ rings grow to their working size there, and
// the timed loop must then report 0 allocs/op.
func benchmarkSlotClass(b *testing.B, n int, load float64) {
	s, err := registry.New("lcf_central_rr", n, sched.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	e, err := rt.New(rt.Config{
		N: n, Scheduler: s, VOQCap: 256, OutCap: 256,
		Classes: testClassList(), Rank: pifo.RankDeadline,
	})
	if err != nil {
		b.Fatal(err)
	}
	type arrival struct{ dst, class int }
	const traceLen = 4096
	arrivals := make([][]arrival, traceLen)
	gen := traffic.NewBernoulli(n, load, traffic.NewUniform(n), 3)
	mix := [8]int{0, 1, 1, 2, 2, 2, 2, 2}
	for t := range arrivals {
		row := make([]arrival, n)
		for i := 0; i < n; i++ {
			row[i] = arrival{gen.Next(i), mix[(t+i)%len(mix)]}
		}
		gen.Advance()
		arrivals[t] = row
	}
	step := func(k int) {
		for i, a := range arrivals[k%traceLen] {
			if a.dst == traffic.NoPacket {
				continue
			}
			_ = e.AdmitClass(i, a.dst, a.class, 0, 0, 0)
		}
		e.Tick()
		drainOutputs(e)
	}
	for k := 0; k < traceLen; k++ {
		step(k)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		step(k)
	}
	b.StopTimer()
	e.Close()
}

func BenchmarkEngineSlotClassN64(b *testing.B)  { benchmarkSlotClass(b, 64, 0.9) }
func BenchmarkEngineSlotClassN256(b *testing.B) { benchmarkSlotClass(b, 256, 0.9) }

// BenchmarkClassTierConstruct measures building a class engine at n=64
// with 256-entry PIFOs — the set-up cost and (B/op) the footprint the
// tier adds before a frame arrives.
func BenchmarkClassTierConstruct(b *testing.B) {
	const n = 64
	s, err := registry.New("lcf_central_rr", n, sched.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	cfg := rt.Config{
		N: n, Scheduler: s, VOQCap: 256, OutCap: 256,
		Classes: testClassList(), Rank: pifo.RankDeadline,
	}
	b.ReportAllocs()
	for k := 0; k < b.N; k++ {
		if _, err := rt.New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// The traced variants quantify the observability tax at n=64: attached-
// but-disabled must be within noise of the baseline (the zero-overhead-
// when-disabled contract, EXPERIMENTS.md records the measured delta), and
// enabled shows the full recording cost.
func BenchmarkEngineSlotLCFRRN64TraceOff(b *testing.B) {
	benchmarkSlot(b, "lcf_central_rr", 64, 0.9, tracerDisabled)
}
func BenchmarkEngineSlotLCFRRN64TraceOn(b *testing.B) {
	benchmarkSlot(b, "lcf_central_rr", 64, 0.9, tracerEnabled)
}

// benchmarkAdmit isolates the admission path: one uncontended bounded
// push plus counter updates, through whichever door offer uses (it is
// handed the k-th of n·n·voqCap distinct (input, output) visits; tiers
// switches on the tiers the door needs). The engine is swapped out (off
// the clock) whenever every queue is full, so the measured path is always
// a successful bounded admit. The measurement includes the rings' (and
// on a class engine the PIFO heaps') amortized doubling toward their
// working size.
func benchmarkAdmit(b *testing.B, tiers rt.Config, offer func(e *rt.Engine, src, dst int, seq uint64) error) {
	const n, voqCap = 16, 256
	newEngine := func() *rt.Engine {
		s, err := registry.New("lcf_central_rr", n, sched.Options{})
		if err != nil {
			b.Fatal(err)
		}
		cfg := tiers
		cfg.N, cfg.Scheduler, cfg.VOQCap = n, s, voqCap
		e, err := rt.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return e
	}
	const batch = n * n * voqCap // admissions until every queue is full
	e := newEngine()
	filled := 0
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		if filled == batch {
			b.StopTimer()
			e = newEngine()
			filled = 0
			b.StartTimer()
		}
		if err := offer(e, filled%n, (filled/n)%n, uint64(k)); err != nil {
			b.Fatal(err)
		}
		filled++
	}
}

func admitPlain(e *rt.Engine, src, dst int, seq uint64) error { return e.Admit(src, dst, seq, 0) }

func BenchmarkAdmit(b *testing.B) { benchmarkAdmit(b, rt.Config{}, admitPlain) }

// The class door and Offer's two steered shapes on the same harness, so a
// change to the shared stages shows per door. The steered shapes offer flow id = src under
// the "least" policy: the first n frames insert n flows onto n distinct
// ports (each lands on a still-empty one), every later frame is a sticky
// hit, and the queues fill evenly, full exactly when the harness swaps.

func BenchmarkAdmitClass(b *testing.B) {
	benchmarkAdmit(b, rt.Config{Classes: testClassList(), Rank: pifo.RankDeadline}, func(e *rt.Engine, src, dst int, seq uint64) error {
		return e.AdmitClass(src, dst, src%3, seq, 0, 0)
	})
}

func BenchmarkOfferSteered(b *testing.B) {
	benchmarkAdmit(b, rt.Config{Flows: 64, FlowPolicy: flowtable.PolicyLeast}, func(e *rt.Engine, src, dst int, seq uint64) error {
		_, err := e.Offer(rt.Request{Dst: dst, Seq: seq, Flow: uint64(src), Steered: true})
		return err
	})
}

func BenchmarkOfferComposed(b *testing.B) {
	tiers := rt.Config{Flows: 64, FlowPolicy: flowtable.PolicyLeast, Classes: testClassList(), Rank: pifo.RankDeadline}
	benchmarkAdmit(b, tiers, func(e *rt.Engine, src, dst int, seq uint64) error {
		_, err := e.Offer(rt.Request{Dst: dst, Seq: seq, Flow: uint64(src), Steered: true, Class: src % 3, Classed: true})
		return err
	})
}
