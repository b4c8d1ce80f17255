// Live (concurrent-safe) counters and histograms for the runtime engine.
//
// The offline simulator (internal/simswitch) is single-threaded, so the
// Stream/Histogram types in this package need no synchronization. The live
// switch runtime (internal/runtime) is not: per-input goroutines admit
// frames while the arbiter goroutine ticks and an HTTP handler snapshots
// counters mid-run. The types here are safe for that access pattern —
// writers use atomic adds only (no locks on the hot path), and readers get
// a consistent-enough snapshot for monitoring (individual fields are
// atomically read; cross-field exactness is not guaranteed and not needed
// for a metrics endpoint).

package metrics

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing concurrent-safe counter.
// The zero value is ready to use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a concurrent-safe instantaneous value (queue depth, backlog).
// The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Set overwrites the gauge.
func (g *Gauge) Set(x int64) { g.v.Store(x) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// LiveHistogram is a concurrent-safe histogram over fixed bucket upper
// bounds. Writers only issue atomic adds; Snapshot and Quantile read the
// buckets atomically (each bucket individually, so a snapshot taken during
// heavy writing can be off by the handful of observations that landed
// mid-read — fine for monitoring, not for exact accounting).
//
// Observe costs three atomic adds per observation. A single writer that
// observes many values per period can gather them in a HistogramBatch
// instead and publish the period's worth with one batched add: one atomic
// add per non-empty bucket, plus one each for the total and the sum.
type LiveHistogram struct {
	bounds []float64 // ascending upper bounds; observations above the last land in overflow
	counts []atomic.Int64
	over   atomic.Int64
	total  atomic.Int64
	sum    atomic.Int64 // sum of observations, in the observation's own unit (truncated)
}

// NewLiveHistogram returns a histogram with the given ascending bucket
// upper bounds. An observation x lands in the first bucket with x <=
// bounds[k]; larger observations count as overflow.
func NewLiveHistogram(bounds []float64) *LiveHistogram {
	if len(bounds) == 0 {
		panic("metrics: live histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: live histogram bounds must be strictly ascending")
		}
	}
	return &LiveHistogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)),
	}
}

// ExponentialBounds returns n ascending bounds starting at start and
// multiplying by factor — the usual latency-bucket layout.
func ExponentialBounds(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		panic("metrics: ExponentialBounds needs n > 0, start > 0, factor > 1")
	}
	out := make([]float64, n)
	x := start
	for i := range out {
		out[i] = x
		x *= factor
	}
	return out
}

// LinearBounds returns n ascending bounds start, start+step, … — the depth
// histogram layout.
func LinearBounds(start, step float64, n int) []float64 {
	if n <= 0 || step <= 0 {
		panic("metrics: LinearBounds needs n > 0, step > 0")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*step
	}
	return out
}

// Observe records one observation.
func (h *LiveHistogram) Observe(x float64) {
	h.total.Add(1)
	h.sum.Add(int64(x))
	if k := h.Bucket(x); k < len(h.counts) {
		h.counts[k].Add(1)
	} else {
		h.over.Add(1)
	}
}

// Bucket returns the index of the bucket x lands in: the first k with
// x <= bounds[k], or len(bounds) — one past the last bucket — for an
// overflow observation.
func (h *LiveHistogram) Bucket(x float64) int {
	// Linear scan: bucket counts are small (tens) and the scan is
	// branch-predictable; a binary search buys nothing at this size.
	for k, b := range h.bounds {
		if x <= b {
			return k
		}
	}
	return len(h.bounds)
}

// Total returns the number of observations.
func (h *LiveHistogram) Total() int64 { return h.total.Load() }

// Mean returns the mean observation (0 with none).
func (h *LiveHistogram) Mean() float64 {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns an upper bound for the q-quantile (0 ≤ q ≤ 1): the
// bucket bound the q-quantile observation fell under. Overflow
// observations report +Inf. Returns 0 with no observations.
func (h *LiveHistogram) Quantile(q float64) float64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	var cum int64
	for k := range h.counts {
		cum += h.counts[k].Load()
		if cum >= target {
			return h.bounds[k]
		}
	}
	return math.Inf(1)
}

// HistogramSnapshot is a point-in-time copy of a LiveHistogram for
// serialization on a metrics endpoint.
type HistogramSnapshot struct {
	Bounds   []float64 `json:"bounds"`
	Counts   []int64   `json:"counts"`
	Overflow int64     `json:"overflow"`
	Total    int64     `json:"total"`
	Mean     float64   `json:"mean"`
	// Sum is the sum of all observations (truncated to integers as they
	// were recorded), the Prometheus histogram's _sum series.
	Sum float64 `json:"sum"`
}

// Snapshot copies the current bucket counts.
func (h *LiveHistogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds:   append([]float64(nil), h.bounds...),
		Counts:   make([]int64, len(h.counts)),
		Overflow: h.over.Load(),
		Total:    h.total.Load(),
		Mean:     h.Mean(),
		Sum:      float64(h.sum.Load()),
	}
	for k := range h.counts {
		s.Counts[k] = h.counts[k].Load()
	}
	return s
}

// HistogramBatch gathers observations for one LiveHistogram without
// atomics and publishes them together: Flush adds each non-empty bucket,
// the overflow, the total and the sum to the histogram with one atomic
// add apiece, then empties the batch. A flushed batch is exactly the same
// observations made one Observe at a time; readers see none of a batch
// before its Flush. A batch belongs to one goroutine.
type HistogramBatch struct {
	h      *LiveHistogram
	counts []int64 // per bucket of h, overflow last (Bucket's numbering)
	total  int64
	sum    int64
}

// NewHistogramBatch returns an empty batch for h.
func NewHistogramBatch(h *LiveHistogram) *HistogramBatch {
	return &HistogramBatch{h: h, counts: make([]int64, len(h.bounds)+1)}
}

// Observe adds one observation to the batch.
func (b *HistogramBatch) Observe(x float64) {
	b.counts[b.h.Bucket(x)]++
	b.total++
	b.sum += int64(x)
}

// AddCounts adds observations the caller has already bucketed: counts[k]
// of them in bucket k, numbered as Bucket numbers them (overflow last),
// whose values sum to sum.
func (b *HistogramBatch) AddCounts(counts []int64, sum int64) {
	for k, c := range counts[:len(b.counts)] {
		b.counts[k] += c
		b.total += c
	}
	b.sum += sum
}

// Flush publishes the batch into its histogram and empties it. The
// buckets land before the total, so a concurrent Quantile never finds
// fewer bucketed observations than the total it reads.
func (b *HistogramBatch) Flush() {
	if b.total == 0 {
		return
	}
	h := b.h
	for k, c := range b.counts {
		if c == 0 {
			continue
		}
		if k < len(h.counts) {
			h.counts[k].Add(c)
		} else {
			h.over.Add(c)
		}
		b.counts[k] = 0
	}
	h.total.Add(b.total)
	h.sum.Add(b.sum)
	b.total, b.sum = 0, 0
}
