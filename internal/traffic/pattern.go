package traffic

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Defaults of the pattern parameters Params leaves zero.
const (
	DefaultHotspotFrac = 0.5 // hotspot: share of each input's traffic sent to output 0
	DefaultMeanBurst   = 16  // bursty: mean burst length in packets
)

// Params tunes the named patterns that take a parameter. A zero
// HotspotFrac or MeanBurst takes its default. Unbalance has no default —
// w = 0 is a pattern of its own — so a caller that cannot set it leaves it
// nil and NewPattern refuses "unbalanced".
type Params struct {
	HotspotFrac float64
	MeanBurst   float64
	Unbalance   *float64 // unbalanced: the w factor in [0,1]
}

// patterns maps every pattern name to its generator: Bernoulli arrivals
// over a destination picker, or bursty on/off sources.
var patterns = map[string]func(n int, load float64, p Params, seed uint64) (Generator, error){
	"uniform": func(n int, load float64, _ Params, seed uint64) (Generator, error) {
		return NewBernoulli(n, load, NewUniform(n), seed), nil
	},
	"hotspot": func(n int, load float64, p Params, seed uint64) (Generator, error) {
		if p.HotspotFrac == 0 {
			p.HotspotFrac = DefaultHotspotFrac
		}
		return NewBernoulli(n, load, NewHotspot(n, 0, p.HotspotFrac), seed), nil
	},
	"diagonal": func(n int, load float64, _ Params, seed uint64) (Generator, error) {
		return NewBernoulli(n, load, NewDiagonal(n), seed), nil
	},
	"logdiagonal": func(n int, load float64, _ Params, seed uint64) (Generator, error) {
		return NewBernoulli(n, load, NewLogDiagonal(n), seed), nil
	},
	"bursty": func(n int, load float64, p Params, seed uint64) (Generator, error) {
		if p.MeanBurst == 0 {
			p.MeanBurst = DefaultMeanBurst
		}
		return NewBursty(n, load, p.MeanBurst, NewUniform(n), seed), nil
	},
	"unbalanced": func(n int, load float64, p Params, seed uint64) (Generator, error) {
		if p.Unbalance == nil {
			return nil, errors.New(`traffic: pattern "unbalanced" needs an unbalance factor`)
		}
		return NewBernoulli(n, load, NewUnbalanced(n, *p.Unbalance), seed), nil
	},
}

// PatternNames returns every name NewPattern knows, sorted.
func PatternNames() []string {
	names := make([]string, 0, len(patterns))
	for name := range patterns {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// NewPattern builds the named arrival process for n ports at the given
// offered load. It is the one place a pattern name becomes a generator:
// the simulator facade, the sweep harness and the live load generator
// all build theirs here, so a name means the same traffic everywhere.
func NewPattern(name string, n int, load float64, p Params, seed uint64) (Generator, error) {
	build, ok := patterns[name]
	if !ok {
		return nil, fmt.Errorf("traffic: unknown pattern %q (known: %s)", name, strings.Join(PatternNames(), ", "))
	}
	return build(n, load, p, seed)
}
