package traffic

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Weighted picks an index with probability proportional to its weight —
// the class mix of cmd/lcfload, the E32 study and the chaos storms. It
// owns no RNG: Pick maps a caller-supplied uniform draw onto the
// cumulative weights, so each caller keeps its own seeded stream and the
// sequences recorded before the three pickers were merged replay bit for
// bit.
type Weighted struct {
	cum []float64 // cum[i] = sum of weights 0..i; the last entry is the total
}

// NewWeighted builds a picker over len(ws) indexes. Weights are relative
// (they need not sum to 1); each must be finite and ≥ 0 and at least one
// positive. A zero weight is legal: it names an index never drawn.
func NewWeighted(ws []float64) (*Weighted, error) {
	cum := make([]float64, len(ws))
	var sum float64
	for i, w := range ws {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("traffic: weight %d is %g, must be finite and >= 0", i, w)
		}
		sum += w
		cum[i] = sum
	}
	if sum <= 0 || math.IsInf(sum, 0) {
		return nil, fmt.Errorf("traffic: %d weights sum to %g, need a finite positive total", len(ws), sum)
	}
	return &Weighted{cum: cum}, nil
}

// Pick maps u, uniform in [0,1), to the first index whose cumulative
// weight exceeds u·total. A u that a caller's round-off pushed to 1 falls
// into the last index rather than off the table.
func (w *Weighted) Pick(u float64) int {
	r := u * w.cum[len(w.cum)-1]
	for i, c := range w.cum {
		if r < c {
			return i
		}
	}
	return len(w.cum) - 1
}

// ParseWeights parses a comma-separated weight list ("8,1,1", spaces
// allowed) and validates it the way NewWeighted does, so a list it
// returns always builds a picker.
func ParseWeights(spec string) ([]float64, error) {
	parts := strings.Split(spec, ",")
	ws := make([]float64, len(parts))
	for i, p := range parts {
		w, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("traffic: weight %q: %w", p, err)
		}
		ws[i] = w
	}
	if _, err := NewWeighted(ws); err != nil {
		return nil, err
	}
	return ws, nil
}
