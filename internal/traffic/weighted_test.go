package traffic

import (
	"math"
	"testing"
)

// TestWeightedRejects is the one table for the validation edges every
// former copy of the picker handled differently (or not at all).
func TestWeightedRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		ws   []float64
	}{
		{"empty", nil},
		{"zero sum", []float64{0, 0}},
		{"negative", []float64{-1, 2}},
		{"NaN", []float64{math.NaN(), 1}},
		{"+Inf", []float64{math.Inf(1), 1}},
		{"sum overflows", []float64{math.MaxFloat64, math.MaxFloat64}},
	} {
		if w, err := NewWeighted(tc.ws); err == nil {
			t.Errorf("%s: NewWeighted(%v) = %+v, want error", tc.name, tc.ws, w)
		}
	}
}

// TestWeightedPick walks u across the bucket boundaries: a boundary
// belongs to the bucket above it (the comparison is strict), a
// zero-weight bucket is never entered, and a draw that lands on the total
// (u = 1, a caller's round-off) falls into the last bucket.
func TestWeightedPick(t *testing.T) {
	below := func(x float64) float64 { return math.Nextafter(x, 0) }
	for _, tc := range []struct {
		ws   []float64
		u    float64
		want int
	}{
		{[]float64{1, 1, 2}, 0, 0},
		{[]float64{1, 1, 2}, below(0.25), 0},
		{[]float64{1, 1, 2}, 0.25, 1},
		{[]float64{1, 1, 2}, below(0.5), 1},
		{[]float64{1, 1, 2}, 0.5, 2},
		{[]float64{1, 1, 2}, below(1), 2},
		{[]float64{1, 0, 1}, below(0.5), 0},
		{[]float64{1, 0, 1}, 0.5, 2},
		{[]float64{0, 1}, 0, 1},
		{[]float64{5}, below(1), 0},
		// u·total ≥ total matches no bucket; the draw stays in the table.
		{[]float64{1, 1, 1}, 1, 2},
	} {
		w, err := NewWeighted(tc.ws)
		if err != nil {
			t.Fatalf("NewWeighted(%v): %v", tc.ws, err)
		}
		if got := w.Pick(tc.u); got != tc.want {
			t.Errorf("NewWeighted(%v).Pick(%v) = %d, want %d", tc.ws, tc.u, got, tc.want)
		}
	}
}

func TestParseWeights(t *testing.T) {
	ws, err := ParseWeights("8, 1,0")
	if err != nil || len(ws) != 3 || ws[0] != 8 || ws[1] != 1 || ws[2] != 0 {
		t.Fatalf(`ParseWeights("8, 1,0") = %v, %v, want [8 1 0]`, ws, err)
	}
	for _, spec := range []string{
		"",        // empty entry
		"1,",      // trailing empty entry
		"a,1",     // not a number
		"1x,1",    // trailing garbage
		"-1,2",    // negative weight
		"0,0",     // nothing would ever be drawn
		"NaN,1",   // not finite
		"+Inf,1",  // not finite
		"1e309,1", // out of float64 range
	} {
		if ws, err := ParseWeights(spec); err == nil {
			t.Errorf("ParseWeights(%q) = %v, want error", spec, ws)
		}
	}
}
