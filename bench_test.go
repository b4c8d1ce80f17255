// Benchmarks, one per reproduced table/figure (see EXPERIMENTS.md for the
// index). These measure the cost of regenerating each artifact; the
// artifacts themselves are printed by cmd/lcfsim and cmd/lcfhw.
package lcf

import (
	"fmt"
	"testing"
)

// BenchmarkTable1GateModel — E1: the Table 1 gate/register cost model,
// evaluated across the port range the scalability discussion covers.
func BenchmarkTable1GateModel(b *testing.B) {
	sink := 0
	for i := 0; i < b.N; i++ {
		for _, n := range []int{4, 8, 16, 32, 64, 128, 256} {
			t := HardwareCostTable1(n)
			sink += t.TotalGates
		}
	}
	_ = sink
}

// BenchmarkTable2CycleModel — E2: a full 5n+3-cycle scheduling pass of the
// cycle-accurate hardware model at the Clint port count (n=16).
func BenchmarkTable2CycleModel(b *testing.B) {
	s, err := NewScheduler("lcf_central_rr", 16, Options{})
	if err != nil {
		b.Fatal(err)
	}
	req := NewRequestMatrix(16)
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			if (i+j)%3 != 0 {
				req.Set(i, j)
			}
		}
	}
	m := NewMatch(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Schedule(s, req, m)
	}
}

// BenchmarkCommCostModel — E3: the Section 6.2 communication-cost formulas
// across the scaling range.
func BenchmarkCommCostModel(b *testing.B) {
	sink := 0
	for i := 0; i < b.N; i++ {
		for n := 4; n <= 1024; n *= 2 {
			sink += CentralCommBits(n) + DistCommBits(n, 4)
		}
	}
	_ = sink
}

// benchSim runs a fixed-size simulation for one scheduler label.
func benchSim(b *testing.B, name string, load float64, pattern TrafficPattern) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		var s Scheduler
		if name != OutbufName {
			var err error
			s, err = NewScheduler(name, 16, Options{Iterations: 4, Seed: uint64(i)})
			if err != nil {
				b.Fatal(err)
			}
		}
		res, err := Simulate(SimConfig{
			N: 16, Scheduler: s, Load: load, Seed: uint64(i), Pattern: pattern,
			WarmupSlots: 1000, MeasureSlots: 5000,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Delay.Count() == 0 {
			b.Fatal("no packets measured")
		}
	}
}

// BenchmarkFigure12a — E4: one Figure 12a cell (6k slots at 16 ports,
// load 0.9, uniform Bernoulli) per scheduler, including the outbuf
// reference that anchors Figure 12b.
func BenchmarkFigure12a(b *testing.B) {
	names := append(Figure12Schedulers(), OutbufName)
	for _, name := range names {
		b.Run(name, func(b *testing.B) { benchSim(b, name, 0.9, Uniform) })
	}
}

// BenchmarkFigure12b — E5: the full mini-grid needed for one relative-
// latency row (every scheduler plus the outbuf denominator at one load),
// i.e. the marginal cost of a Figure 12b point.
func BenchmarkFigure12b(b *testing.B) {
	cfg := SweepConfig{
		N:            16,
		Loads:        []float64{0.9},
		Seed:         1,
		WarmupSlots:  500,
		MeasureSlots: 2500,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Sweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := res.RelativeTo(OutbufName); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFairnessSweep — E6: n² scheduling cycles of LCF+RR under full
// demand, the window within which every pair must be served.
func BenchmarkFairnessSweep(b *testing.B) {
	s := NewCentralLCF(16, RRInterleaved)
	req := NewRequestMatrix(16)
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			req.Set(i, j)
		}
	}
	m := NewMatch(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := 0; c < 16*16; c++ {
			Schedule(s, req, m)
		}
	}
}

// BenchmarkSaturationThroughput — E11: a load-1.0 run per scheduler, the
// measurement behind the saturation-throughput table.
func BenchmarkSaturationThroughput(b *testing.B) {
	for _, name := range []string{"lcf_central_rr", "islip", "pim", "fifo"} {
		b.Run(name, func(b *testing.B) { benchSim(b, name, 1.0, Uniform) })
	}
}

// BenchmarkIterationAblation — E12: distributed LCF at load 0.95 with 1–6
// iterations, the convergence-speed ablation.
func BenchmarkIterationAblation(b *testing.B) {
	for _, iters := range []int{1, 2, 4, 6} {
		b.Run(map[int]string{1: "iter1", 2: "iter2", 4: "iter4", 6: "iter6"}[iters], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := NewScheduler("lcf_dist", 16, Options{Iterations: iters, Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Simulate(SimConfig{
					N: 16, Scheduler: s, Load: 0.95, Seed: uint64(i),
					WarmupSlots: 1000, MeasureSlots: 5000,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRRDensityAblation — E13: the three round-robin densities of the
// central scheduler (none / interleaved diagonal / prescheduled diagonal),
// Section 3's fairness-throughput trade-off.
func BenchmarkRRDensityAblation(b *testing.B) {
	for _, mode := range []CentralRRMode{RRNone, RRInterleaved, RRPrescheduled} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := NewCentralLCF(16, mode)
				if _, err := Simulate(SimConfig{
					N: 16, Scheduler: s, Load: 0.95, Seed: uint64(i),
					WarmupSlots: 1000, MeasureSlots: 5000,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBurstyTraffic — E14: the bursty-arrivals extension sweep point
// (mean burst 16, load 0.8).
func BenchmarkBurstyTraffic(b *testing.B) {
	for _, name := range []string{"lcf_central_rr", "islip"} {
		b.Run(name, func(b *testing.B) { benchSim(b, name, 0.8, Bursty) })
	}
}

// BenchmarkSpeedupCIOQ — extension: one CIOQ sweep cell (speedup 2) vs
// the plain input-queued run at the same load.
func BenchmarkSpeedupCIOQ(b *testing.B) {
	for _, sp := range []int{1, 2} {
		b.Run(map[int]string{1: "speedup1", 2: "speedup2"}[sp], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := NewScheduler("lcf_central_rr", 16, Options{Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Simulate(SimConfig{
					N: 16, Scheduler: s, Load: 0.95, Seed: uint64(i), Speedup: sp,
					WarmupSlots: 1000, MeasureSlots: 5000,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFairnessMeasured — the measured-fairness experiment (min
// share / Jain index at saturation) for the LCF pair.
func BenchmarkFairnessMeasured(b *testing.B) {
	cfg := SweepConfig{
		N:            16,
		Schedulers:   []string{"lcf_central", "lcf_central_rr"},
		Seed:         1,
		WarmupSlots:  500,
		MeasureSlots: 4000,
	}
	for i := 0; i < b.N; i++ {
		if _, err := MeasureFairness(cfg, 1.0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMulticastPolicies — extension: the Section 4.3 / ref [11]
// multicast disciplines at saturating copy load.
func BenchmarkMulticastPolicies(b *testing.B) {
	for _, p := range []MulticastPolicy{NoSplitting, FewestFirst, LargestFirst} {
		b.Run(p.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := SimulateMulticast(MulticastConfig{
					N: 16, Policy: p, Load: 0.225, Fanout: 4, Seed: uint64(i),
					Warmup: 500, Measure: 4000,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// decisionMatrix returns the dense request pattern the decision
// benchmarks use at any width: ~3/4 of all (i,j) pairs request.
func decisionMatrix(n int) *RequestMatrix {
	req := NewRequestMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if (i*5+j*3)%4 != 0 {
				req.Set(i, j)
			}
		}
	}
	return req
}

// BenchmarkSchedulerDecisionN1024 is the n=1024 decision tier, run for
// the word-parallel schedulers only: at this width the bit-at-a-time
// schedulers are orders of magnitude slower and would drown a smoke run,
// while the bitvec kernels are exactly what the tier is sizing.
func BenchmarkSchedulerDecisionN1024(b *testing.B) {
	const n = 1024
	for _, name := range []string{"lcf_central_rr", "islip"} {
		b.Run(name, func(b *testing.B) {
			s, err := NewScheduler(name, n, Options{Iterations: 4, Seed: 7})
			if err != nil {
				b.Fatal(err)
			}
			r := decisionMatrix(n)
			m := NewMatch(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Schedule(s, r, m)
			}
		})
	}
}

// BenchmarkSchedulerDecision measures one scheduling decision per
// scheduler on a dense request matrix — the per-slot cost that bounds
// achievable line rate in a software implementation. The n=16 tier is
// the paper's switch size; n=64 and n=256 measure the scaling the
// word-parallel kernels target (hundreds of ports, where bit-at-a-time
// scans become the wall).
func BenchmarkSchedulerDecision(b *testing.B) {
	for _, name := range SchedulerNames() {
		b.Run(name, func(b *testing.B) {
			for _, n := range []int{16, 64, 256} {
				b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
					s, err := NewScheduler(name, n, Options{Iterations: 4, Seed: 7})
					if err != nil {
						b.Fatal(err)
					}
					var r *RequestMatrix
					if name == "fifo" {
						// FIFO accepts only single-request rows (head-of-line).
						r = NewRequestMatrix(n)
						for i := 0; i < n; i++ {
							r.Set(i, (i*7)%n)
						}
					} else {
						r = decisionMatrix(n)
					}
					m := NewMatch(n)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						Schedule(s, r, m)
					}
				})
			}
		})
	}
}
