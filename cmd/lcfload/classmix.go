package main

import (
	"fmt"
	"strings"

	"repro/internal/traffic"
)

// parseClassMix parses the -class-mix spec "w0,w1,..." into per-class
// traffic weights, indexed by class (traffic.ParseWeights: relative,
// finite, >= 0, at least one positive). The indexes must line up with
// the daemon's -classes order — the wire frame carries an index, not a
// name — which is also why the list is capped here and not in the
// parser: the wire class field is one byte.
func parseClassMix(spec string) ([]float64, error) {
	if k := strings.Count(spec, ",") + 1; k > 256 {
		return nil, fmt.Errorf("class-mix names %d classes, the wire class field carries at most 256", k)
	}
	return traffic.ParseWeights(spec)
}

// classPicker draws class indexes with probability proportional to the
// parsed weights, from its own seeded stream so adding a class mix does
// not perturb the per-port arrival sequences or the retry jitter.
type classPicker struct {
	mix *traffic.Weighted
	rng *jitter
}

func newClassPicker(ws []float64, seed uint64) (*classPicker, error) {
	mix, err := traffic.NewWeighted(ws)
	if err != nil {
		return nil, err
	}
	return &classPicker{mix: mix, rng: newJitter(seed)}, nil
}

func (p *classPicker) pick() uint8 {
	// 53 uniform bits → [0, 1), the float64-exact construction.
	return uint8(p.mix.Pick(float64(p.rng.next()>>11) / (1 << 53)))
}
