package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for none. It sorts a copy.
func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// quartiles returns the first, second and third quartile of xs the way
// Python's statistics.quantiles(xs, n=4) does (the exclusive method), so
// the spreads -compare prints are the ones the driver computes. One
// value is its own quartiles; none gives zeros.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	switch m {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// Position i*(m+1)/4 in 1-based ranks, clamped to the data.
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// runSegments is how many equal segments a run is cut into. Every
// throughput and latency figure is computed per segment and read at the
// best quartile of the segments (see sustained).
const runSegments = 30

// mark is a cumulative reading taken at a segment boundary: elapsed
// seconds since the run started and the count so far.
type mark struct {
	at    float64
	count float64
}

// segmentRates turns boundary marks (the first is the run's start) into
// one rate per segment; a segment of no duration reads 0.
func segmentRates(marks []mark) []float64 {
	var rates []float64
	for k := 1; k < len(marks); k++ {
		rate := 0.0
		if dt := marks[k].at - marks[k-1].at; dt > 0 {
			rate = (marks[k].count - marks[k-1].count) / dt
		}
		rates = append(rates, rate)
	}
	return rates
}

// sustained is the benchmark's aggregation rule for per-segment
// figures: the value at the best quartile — the rate that a quarter of
// the run's segments reached or beat, the latency a quarter stayed at or
// under. On a shared sandbox other tenants only ever slow a segment
// down, so the median of the segments moves with the neighbours (its
// run-to-run spread measured twice that of the best quartile on the
// engine workload), while a change to the code moves every segment and
// so moves the best quartile just the same.
func sustained(perSegment []float64, better string) float64 {
	s := append([]float64(nil), perSegment...)
	sort.Float64s(s)
	if better == higher {
		return percentileSorted(s, 0.75)
	}
	return percentileSorted(s, 0.25)
}

// spreadOf is a set of per-segment figures' (max−min)/median: the run's
// own noise figure.
func spreadOf(perSegment []float64) float64 {
	if len(perSegment) == 0 {
		return 0
	}
	lo, hi := perSegment[0], perSegment[0]
	for _, r := range perSegment {
		lo, hi = math.Min(lo, r), math.Max(hi, r)
	}
	if med := median(perSegment); med > 0 {
		return (hi - lo) / med
	}
	return 0
}

// percentileLadder are the tail percentiles a timing may be reported at.
var percentileLadder = []float64{0.50, 0.90, 0.99, 0.999, 0.9999}

// supportedPercentile applies the reporting rule for tails: the highest
// ladder percentile that still has at least ten samples beyond it. ok is
// false when even the median does not (fewer than 20 samples).
func supportedPercentile(samples int) (p float64, ok bool) {
	for _, q := range percentileLadder {
		// 1-q is not exact in binary; the slack keeps 100 samples at p90.
		if float64(samples)*(1-q) >= 10-1e-6 {
			p, ok = q, true
		}
	}
	return p, ok
}

// tailPercentile caps want at what the sample count supports, so a short
// (smoke) run reports a lower percentile under the same name instead of
// a tail it cannot resolve.
func tailPercentile(samples int, want float64) float64 {
	if p, ok := supportedPercentile(samples); ok && p < want {
		return p
	}
	return want
}

// percentileSorted interpolates the p-quantile of an ascending sample.
func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// segSamples holds a run's timing samples by segment. A timing is
// reported as the sustained value (best quartile over the segments) of
// each segment's own percentile: a burst of interference from another
// tenant spoils the tail of the segments it falls in, not the figure.
type segSamples [][]float64

func newSegSamples(segments, capacity int) segSamples {
	s := make(segSamples, segments)
	for k := range s {
		s[k] = make([]float64, 0, capacity)
	}
	return s
}

// sortAll sorts every segment; percentile needs it.
func (s segSamples) sortAll() {
	for _, seg := range s {
		sort.Float64s(seg)
	}
}

// usable returns the segments a figure is read from: the non-empty ones
// holding at least half as many samples as the typical (median)
// segment. A segment cut short by a stall in the one before it has too
// few samples to carry a tail percentile and is left out.
func (s segSamples) usable() (segs [][]float64, typical int) {
	var sizes []float64
	for _, seg := range s {
		if len(seg) > 0 {
			sizes = append(sizes, float64(len(seg)))
		}
	}
	typical = int(median(sizes))
	for _, seg := range s {
		if len(seg) > 0 && 2*len(seg) >= typical {
			segs = append(segs, seg)
		}
	}
	return segs, typical
}

// count is the total sample count and the typical segment's, which is
// what the tail rule is applied to.
func (s segSamples) count() (total, typical int) {
	for _, seg := range s {
		total += len(seg)
	}
	_, typical = s.usable()
	return total, typical
}

// percentile is the sustained value over the usable segments of the
// segment's p-quantile. The segments must be sorted.
func (s segSamples) percentile(p float64) float64 {
	var per []float64
	segs, _ := s.usable()
	for _, seg := range segs {
		per = append(per, percentileSorted(seg, p))
	}
	return sustained(per, lower)
}

// mean is the sustained value over the usable segments of the segment's
// mean.
func (s segSamples) mean() float64 {
	var per []float64
	segs, _ := s.usable()
	for _, seg := range segs {
		sum := 0.0
		for _, v := range seg {
			sum += v
		}
		per = append(per, sum/float64(len(seg)))
	}
	return sustained(per, lower)
}

// slotHist counts integer slot delays; the last bucket collects
// everything at or above its index.
type slotHist []int64

func (h slotHist) add(v int64) {
	if v < 0 {
		v = 0
	}
	if v >= int64(len(h)) {
		v = int64(len(h)) - 1
	}
	h[v]++
}

func (h slotHist) total() (n int64) {
	for _, c := range h {
		n += c
	}
	return n
}

// percentile is the grouped-data quantile: where the cumulative share
// crosses p inside the bucket of value v, it interpolates across
// (v−1, v]. Slot delays are integers, so the plain quantile moves in
// whole steps; this one moves with the distribution under it, which is
// what makes a tail shift visible before the integer flips, and it is
// still exact for one seed.
func (h slotHist) percentile(p float64) float64 {
	n := h.total()
	if n == 0 {
		return 0
	}
	target := p * float64(n)
	cum := 0.0
	for v, c := range h {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			return float64(v) - 1 + (target-cum)/float64(c)
		}
		cum += float64(c)
	}
	return float64(len(h) - 1)
}

// splitmix is the benchmark's seed derivation: one 64-bit mix per
// (seed, stream) pair, so every generator in a run draws from its own
// stream of the run's --seed.
func splitmix(seed, stream uint64) uint64 {
	x := seed + 0x9e3779b97f4a7c15*(stream+1)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
