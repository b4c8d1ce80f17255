package lcf

import (
	"math"
	"testing"
)

// TestGoldenRegression pins bit-exact results of a fixed simulation per
// scheduler. Every component is deterministic for a given seed, so any
// drift here means the behaviour of a scheduler, the traffic model, or
// the simulator changed — either a bug or an intentional semantic change,
// in which case these constants are regenerated (see the table's comment)
// and the change is called out in review.
//
// Setup: n=8, load 0.85 uniform Bernoulli, seed 12345, scheduler seed 99,
// 4 iterations, 1000 warmup + 8000 measured slots, paper queue defaults.
//
// Besides the delay and forwarding counts, each row pins the occupancy
// statistics the simulator keeps incrementally (MaxVOQLen, the choice and
// VOQ-spread means, which are exactly 0 for the organizations without
// VOQs) and the PQ drops. The choice and spread means are compared with
// ==: the constants are the shortest decimal that round-trips the
// float64, so any change to how the per-slot sums are formed shows here.
func TestGoldenRegression(t *testing.T) {
	golden := []struct {
		name      string
		count     int64
		meanDelay float64
		forwarded int64
		maxVOQLen int
		choice    float64
		spread    float64
		droppedPQ int64
	}{
		{"lcf_central", 54329, 4.506820, 54375, 10, 1.9129843750000008, 0.7991022184866594, 0},
		{"lcf_central_rr", 54326, 4.827891, 54379, 11, 2.194515624999993, 0.7867907398114123, 0},
		{"lcf_dist", 54328, 5.238441, 54379, 14, 1.915874999999994, 1.0337738457065033, 0},
		{"lcf_dist_rr", 54325, 5.341758, 54379, 14, 2.012921875000005, 1.024996897573814, 0},
		{"pim", 54316, 6.362435, 54373, 11, 2.7931718750000023, 0.9679169409054779, 0},
		{"islip", 54319, 6.471290, 54375, 11, 2.930546874999999, 0.948004341152119, 0},
		{"wfront", 54312, 6.970577, 54373, 12, 3.220328125000007, 0.9716172149310335, 0},
		{"fifo", 38146, 1334.242201, 39977, 256, 0, 0, 6165},
		{OutbufName, 54336, 3.569402, 54372, 25, 0, 0, 0},
	}
	for _, g := range golden {
		var s Scheduler
		if g.name != OutbufName {
			var err error
			s, err = NewScheduler(g.name, 8, Options{Iterations: 4, Seed: 99})
			if err != nil {
				t.Fatal(err)
			}
		}
		res, err := Simulate(SimConfig{
			N: 8, Scheduler: s, Load: 0.85, Seed: 12345,
			WarmupSlots: 1000, MeasureSlots: 8000,
		})
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if res.Delay.Count() != g.count {
			t.Errorf("%s: measured %d packets, golden %d", g.name, res.Delay.Count(), g.count)
		}
		if math.Abs(res.Delay.Mean()-g.meanDelay) > 5e-7 {
			t.Errorf("%s: mean delay %.6f, golden %.6f", g.name, res.Delay.Mean(), g.meanDelay)
		}
		if res.Counters.Forwarded != g.forwarded {
			t.Errorf("%s: forwarded %d, golden %d", g.name, res.Counters.Forwarded, g.forwarded)
		}
		if res.MaxVOQLen != g.maxVOQLen {
			t.Errorf("%s: max VOQ length %d, golden %d", g.name, res.MaxVOQLen, g.maxVOQLen)
		}
		if res.Choice.Mean() != g.choice {
			t.Errorf("%s: choice mean %v, golden %v", g.name, res.Choice.Mean(), g.choice)
		}
		if res.VOQSpread.Mean() != g.spread {
			t.Errorf("%s: VOQ spread mean %v, golden %v", g.name, res.VOQSpread.Mean(), g.spread)
		}
		if res.Counters.DroppedPQ != g.droppedPQ {
			t.Errorf("%s: PQ drops %d, golden %d", g.name, res.Counters.DroppedPQ, g.droppedPQ)
		}
	}
}
