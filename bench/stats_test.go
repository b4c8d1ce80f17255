package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// The quartiles are the ones Python's statistics.quantiles(xs, n=4)
// prints, since the driver judges spreads with that function.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{2, 8}, 0.5, 5, 9.5},
		{[]float64{4}, 4, 4, 4},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %g, want 2", m)
	}
}

// The segment rule: figures are read at the best quartile of the
// segments, so segments slowed by a neighbour do not move them, while a
// change that moves every segment moves them in full.
func TestSustained(t *testing.T) {
	marks := []mark{{0, 0}}
	for k := 1; k <= 8; k++ {
		rate := 100.0
		if k%2 == 0 {
			rate = 60 // every other segment disturbed
		}
		marks = append(marks, mark{float64(k), marks[k-1].count + rate})
	}
	rates := segmentRates(marks)
	if len(rates) != 8 || rates[0] != 100 || rates[1] != 60 {
		t.Fatalf("segmentRates = %v", rates)
	}
	if got := sustained(rates, higher); got != 100 {
		t.Errorf("sustained rate = %g, want 100 (half the run disturbed)", got)
	}
	if got := spreadOf(rates); !near(got, 0.5) {
		t.Errorf("spread = %g, want 0.5 (max 100 − min 60 over median 80)", got)
	}
	lat := []float64{5, 5, 5, 9, 5, 30, 5, 5}
	if got := sustained(lat, lower); got != 5 {
		t.Errorf("sustained latency = %g, want 5", got)
	}
	for k := range rates {
		rates[k] *= 0.9 // a real regression slows every segment
	}
	if got := sustained(rates, higher); !near(got, 90) {
		t.Errorf("after a 10%% slowdown everywhere: %g, want 90", got)
	}
	if sustained(nil, higher) != 0 || spreadOf(nil) != 0 || len(segmentRates([]mark{{0, 0}})) != 0 {
		t.Error("no segments must read 0")
	}
}

// Timing samples are kept by segment; a burst that ruins one segment's
// tail does not move the reported percentile.
func TestSegSamples(t *testing.T) {
	s := newSegSamples(4, 8)
	for k := range s {
		for v := 1; v <= 100; v++ {
			s[k] = append(s[k], float64(v))
		}
	}
	for v := 0; v < 50; v++ {
		s[2] = append(s[2], 10000) // the burst
	}
	s.sortAll()
	if got := s.percentile(0.99); got < 99 || got > 100 {
		t.Errorf("p99 = %g, want about 99 in spite of the burst", got)
	}
	if got := s.mean(); !near(got, 50.5) {
		t.Errorf("mean = %g, want 50.5", got)
	}
	total, typical := s.count()
	if total != 450 || typical != 100 {
		t.Errorf("count = %d, %d", total, typical)
	}
	// A segment cut short by a stall holds too few samples for a tail and
	// is left out, so its early samples cannot pass for the run's p99.
	s[1] = s[1][:3]
	if segs, _ := s.usable(); len(segs) != 3 {
		t.Errorf("%d usable segments, want 3 (the short one dropped)", len(segs))
	}
	if got := s.percentile(0.99); got < 99 {
		t.Errorf("p99 = %g with a short segment present, want about 99", got)
	}
	empty := newSegSamples(3, 0)
	if empty.percentile(0.5) != 0 || empty.mean() != 0 {
		t.Error("no samples must read 0")
	}
}

// The tail rule: the highest percentile with at least ten samples beyond
// it.
func TestSupportedPercentile(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		ok   bool
		tail float64 // what a request for p99 is read at
	}{
		{19, 0, false, 0.99},
		{20, 0.50, true, 0.50},
		{99, 0.50, true, 0.50},
		{100, 0.90, true, 0.90},
		{999, 0.90, true, 0.90},
		{1000, 0.99, true, 0.99},
		{100000, 0.9999, true, 0.99},
	}
	for _, c := range cases {
		p, ok := supportedPercentile(c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("supportedPercentile(%d) = %g, %v; want %g, %v", c.n, p, ok, c.p, c.ok)
		}
		if got := tailPercentile(c.n, 0.99); got != c.tail {
			t.Errorf("tailPercentile(%d, 0.99) = %g, want %g", c.n, got, c.tail)
		}
	}
}

func TestPercentileSorted(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for p, want := range map[float64]float64{0: 10, 0.5: 30, 0.625: 35, 1: 50} {
		if got := percentileSorted(s, p); !near(got, want) {
			t.Errorf("percentileSorted(%g) = %g, want %g", p, got, want)
		}
	}
	if percentileSorted(nil, 0.5) != 0 {
		t.Error("empty sample should read 0")
	}
}

// The grouped-data percentile moves inside an integer step, so a shift
// of the distribution shows before the plain quantile flips.
func TestSlotHistPercentile(t *testing.T) {
	h := make(slotHist, 16)
	for i := 0; i < 90; i++ {
		h.add(2)
	}
	for i := 0; i < 10; i++ {
		h.add(5)
	}
	if got := h.percentile(0.99); !near(got, 4.9) {
		t.Errorf("p99 = %g, want 4.9 (nine tenths of the way through bucket 5)", got)
	}
	if got := h.percentile(0.45); !near(got, 1.5) {
		t.Errorf("p45 = %g, want 1.5", got)
	}
	h.add(5)
	h.add(5)
	if got := h.percentile(0.99); got <= 4.9 || got >= 5 {
		t.Errorf("a heavier tail must raise p99 inside the step, got %g", got)
	}
	h.add(1000)
	if h[15] != 1 || h.total() != 103 {
		t.Errorf("overflow must land in the last bucket: %v", h)
	}
}

func TestSplitmixStreamsDiffer(t *testing.T) {
	if splitmix(1, 0) == splitmix(1, 1) || splitmix(1, 0) == splitmix(2, 0) {
		t.Error("seed and stream must both change the derived seed")
	}
	if splitmix(7, 3) != splitmix(7, 3) {
		t.Error("derivation must be deterministic")
	}
}
