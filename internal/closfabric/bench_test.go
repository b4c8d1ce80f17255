package closfabric_test

import (
	"testing"

	cf "repro/internal/closfabric"
	"repro/internal/rng"
	rt "repro/internal/runtime"
)

// benchmarkFabricSlot measures one full fabric slot — admissions, the two
// link passes, every engine's tick, delivery collection and the
// conservation audit — in lockstep, so only fabric work is on the clock.
// Arrivals are pre-drawn outside the timed region.
func benchmarkFabricSlot(b *testing.B, m, k, r int, load float64) {
	f, err := cf.New(cf.Config{
		M: m, K: k, R: r,
		Engine: rt.Spec{Seed: 1},
		Select: cf.SelectLeastBacklogged,
	})
	if err != nil {
		b.Fatal(err)
	}
	n := f.N()
	const traceLen = 4096
	arrivals := make([][]int, traceLen)
	src := rng.NewPCG32(3, 9)
	for t := range arrivals {
		row := make([]int, n)
		for p := 0; p < n; p++ {
			row[p] = -1
			if src.Bool(load) {
				row[p] = src.Intn(n)
			}
		}
		arrivals[t] = row
	}

	b.ReportAllocs()
	b.ResetTimer()
	for s := 0; s < b.N; s++ {
		for p, dst := range arrivals[s%traceLen] {
			if dst < 0 {
				continue
			}
			// Backpressure means sustained load exceeds drain rate; drop,
			// as a real front-end would.
			_ = f.Admit(p, dst, 0, 0)
		}
		if err := f.Tick(); err != nil {
			b.Fatal(err)
		}
	}
}

// The slot-rate tiers: total switch count grows m + 2r, external ports
// k·r, so the three configs span 6 switches / 4 ports up to 24 switches /
// 64 ports.
func BenchmarkFabricSlotC2x2x2(b *testing.B) { benchmarkFabricSlot(b, 2, 2, 2, 0.7) }
func BenchmarkFabricSlotC4x4x4(b *testing.B) { benchmarkFabricSlot(b, 4, 4, 4, 0.7) }
func BenchmarkFabricSlotC8x8x8(b *testing.B) { benchmarkFabricSlot(b, 8, 8, 8, 0.7) }
