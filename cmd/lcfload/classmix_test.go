package main

import (
	"math"
	"testing"
)

func mustPicker(t *testing.T, ws []float64, seed uint64) *classPicker {
	t.Helper()
	p, err := newClassPicker(ws, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseClassMix(t *testing.T) {
	ws, err := parseClassMix("8, 1,1")
	if err != nil {
		t.Fatalf("parseClassMix: %v", err)
	}
	if len(ws) != 3 || ws[0] != 8 || ws[1] != 1 || ws[2] != 1 {
		t.Fatalf("parseClassMix = %v, want [8 1 1]", ws)
	}
	// A zero weight is legal as long as some class gets traffic: it
	// configures a class the run deliberately starves.
	if ws, err := parseClassMix("0,1"); err != nil || ws[0] != 0 {
		t.Fatalf("parseClassMix(0,1) = %v, %v", ws, err)
	}
}

func TestParseClassMixRejects(t *testing.T) {
	for _, spec := range []string{
		"",        // empty entry
		"1,",      // trailing empty entry
		"a,1",     // not a number
		"-1,2",    // negative weight
		"0,0",     // nothing would ever be sent
		"NaN,1",   // not finite
		"+Inf,1",  // not finite
		"1e309,1", // overflows to +Inf
	} {
		if _, err := parseClassMix(spec); err == nil {
			t.Errorf("parseClassMix(%q) accepted, want error", spec)
		}
	}
}

func TestParseClassMixTooManyClasses(t *testing.T) {
	spec := "1"
	for i := 0; i < 256; i++ {
		spec += ",1"
	}
	if _, err := parseClassMix(spec); err == nil {
		t.Fatal("parseClassMix accepted 257 classes; the wire field holds 256")
	}
}

// TestClassPickerDistribution draws from an 8:1:1 mix and checks the
// empirical frequencies land near the configured weights.
func TestClassPickerDistribution(t *testing.T) {
	p := mustPicker(t, []float64{8, 1, 1}, 42)
	const draws = 100000
	var counts [3]int
	for i := 0; i < draws; i++ {
		c := p.pick()
		if int(c) >= len(counts) {
			t.Fatalf("pick returned class %d, outside the 3-class mix", c)
		}
		counts[c]++
	}
	for i, want := range []float64{0.8, 0.1, 0.1} {
		got := float64(counts[i]) / draws
		if math.Abs(got-want) > 0.01 {
			t.Errorf("class %d frequency %.3f, want %.3f ± 0.01", i, got, want)
		}
	}
}

// TestClassPickerZeroWeight: a zero-weight class must never be drawn.
func TestClassPickerZeroWeight(t *testing.T) {
	p := mustPicker(t, []float64{1, 0, 1}, 7)
	for i := 0; i < 10000; i++ {
		if p.pick() == 1 {
			t.Fatal("picker drew a zero-weight class")
		}
	}
}

// TestClassPickerDeterministic: two pickers with the same seed produce
// the same class sequence, so seeded runs are reproducible.
func TestClassPickerDeterministic(t *testing.T) {
	a := mustPicker(t, []float64{3, 2, 1}, 11)
	b := mustPicker(t, []float64{3, 2, 1}, 11)
	for i := 0; i < 1000; i++ {
		if ca, cb := a.pick(), b.pick(); ca != cb {
			t.Fatalf("draw %d: %d != %d for identical seeds", i, ca, cb)
		}
	}
}
