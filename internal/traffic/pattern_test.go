package traffic

import (
	"strings"
	"testing"
)

// TestNewPatternDefaults pins that a zero parameter takes the documented
// default: the generator draws exactly the stream of the one built with
// the default spelled out.
func TestNewPatternDefaults(t *testing.T) {
	const n, load, seed = 8, 0.9, 7
	for _, tc := range []struct {
		name string
		want Generator
	}{
		{"hotspot", NewBernoulli(n, load, NewHotspot(n, 0, DefaultHotspotFrac), seed)},
		{"bursty", NewBursty(n, load, DefaultMeanBurst, NewUniform(n), seed)},
	} {
		got, err := NewPattern(tc.name, n, load, Params{}, seed)
		if err != nil {
			t.Fatal(err)
		}
		for slot := 0; slot < 500; slot++ {
			for in := 0; in < n; in++ {
				if g, w := got.Next(in), tc.want.Next(in); g != w {
					t.Fatalf("%s: slot %d input %d: got %d, want %d", tc.name, slot, in, g, w)
				}
			}
			got.Advance()
			tc.want.Advance()
		}
	}
}

// TestNewPatternRefusals pins the two refusals: an unknown name lists the
// known ones, and unbalanced needs a factor the caller must set.
func TestNewPatternRefusals(t *testing.T) {
	if _, err := NewPattern("nonsense", 4, 0.5, Params{}, 1); err == nil || !strings.Contains(err.Error(), "logdiagonal") {
		t.Errorf("unknown pattern: err %v, want one listing the known names", err)
	}
	if _, err := NewPattern("unbalanced", 4, 0.5, Params{}, 1); err == nil {
		t.Error("unbalanced without a factor was accepted")
	}
	w := 0.0
	if _, err := NewPattern("unbalanced", 4, 0.5, Params{Unbalance: &w}, 1); err != nil {
		t.Errorf("unbalanced with w=0: %v", err)
	}
	for _, name := range PatternNames() {
		if name == "unbalanced" {
			continue
		}
		if _, err := NewPattern(name, 4, 0.5, Params{}, 1); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
