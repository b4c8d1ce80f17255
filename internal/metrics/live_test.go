package metrics

import (
	"math"
	"reflect"
	"sync"
	"testing"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	var c Counter
	var g Gauge
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != 0 {
		t.Fatalf("gauge %d, want 0", g.Value())
	}
	g.Set(42)
	if g.Value() != 42 {
		t.Fatalf("gauge %d after Set, want 42", g.Value())
	}
}

func TestLiveHistogramBuckets(t *testing.T) {
	h := NewLiveHistogram([]float64{1, 2, 4, 8})
	for _, x := range []float64{0.5, 1, 1.5, 3, 9} {
		h.Observe(x)
	}
	s := h.Snapshot()
	want := []int64{2, 1, 1, 0}
	for k, w := range want {
		if s.Counts[k] != w {
			t.Errorf("bucket %d: count %d, want %d", k, s.Counts[k], w)
		}
	}
	if s.Overflow != 1 {
		t.Errorf("overflow %d, want 1", s.Overflow)
	}
	if s.Total != 5 {
		t.Errorf("total %d, want 5", s.Total)
	}
	// The p50 observation is 1.5 (3rd of 5), which lies in the ≤2 bucket.
	if got := h.Quantile(0.5); got != 2 {
		t.Errorf("p50 = %g, want 2", got)
	}
	if got := h.Quantile(0.8); got != 4 {
		t.Errorf("p80 = %g, want 4", got)
	}
	if !math.IsInf(h.Quantile(1), 1) {
		t.Errorf("p100 = %g, want +Inf (overflow observation)", h.Quantile(1))
	}
}

func TestLiveHistogramEmpty(t *testing.T) {
	h := NewLiveHistogram(ExponentialBounds(1, 2, 4))
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Total() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestLiveHistogramConcurrent(t *testing.T) {
	h := NewLiveHistogram(ExponentialBounds(1, 2, 10))
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i % 700))
				if i%100 == 0 {
					_ = h.Snapshot()
					_ = h.Quantile(0.99)
				}
			}
		}(w)
	}
	wg.Wait()
	if h.Total() != workers*per {
		t.Fatalf("total %d, want %d", h.Total(), workers*per)
	}
}

func TestBoundsHelpers(t *testing.T) {
	exp := ExponentialBounds(1000, 2, 4)
	wantExp := []float64{1000, 2000, 4000, 8000}
	for i := range wantExp {
		if exp[i] != wantExp[i] {
			t.Fatalf("ExponentialBounds = %v, want %v", exp, wantExp)
		}
	}
	lin := LinearBounds(1, 3, 3)
	wantLin := []float64{1, 4, 7}
	for i := range wantLin {
		if lin[i] != wantLin[i] {
			t.Fatalf("LinearBounds = %v, want %v", lin, wantLin)
		}
	}
}

// TestLiveHistogramBucketBoundaries pins the le-style closed-upper-bound
// semantics the Prometheus exposition in internal/obs depends on: an
// observation equal to a bound belongs to that bound's bucket, the next
// representable value above the last bound is overflow.
func TestLiveHistogramBucketBoundaries(t *testing.T) {
	bounds := []float64{0, 1, 2, 4}
	cases := []struct {
		x      float64
		bucket int // index into bounds, -1 = overflow
	}{
		{-1, 0}, // below the first bound still lands in it
		{0, 0},  // exactly on a bound: that bucket, not the next
		{1, 1},
		{math.Nextafter(1, 2), 2}, // just above a bound: next bucket
		{2, 2},
		{4, 3}, // the last bound is still inside the histogram
		{math.Nextafter(4, 5), -1},
		{math.Inf(1), -1},
	}
	for _, c := range cases {
		h := NewLiveHistogram(bounds)
		h.Observe(c.x)
		s := h.Snapshot()
		got := -1
		for k, n := range s.Counts {
			if n == 1 {
				got = k
			}
		}
		if c.bucket == -1 {
			if s.Overflow != 1 || got != -1 {
				t.Errorf("Observe(%g): counts %v overflow %d, want pure overflow", c.x, s.Counts, s.Overflow)
			}
		} else if got != c.bucket || s.Overflow != 0 {
			t.Errorf("Observe(%g): landed in bucket %d (overflow %d), want bucket %d", c.x, got, s.Overflow, c.bucket)
		}
	}
}

// TestCounterMonotonic reads a counter while writers hammer it and fails
// if any read goes backwards — the monotonicity that lets Prometheus
// rate() over every lcf_*_total series.
func TestCounterMonotonic(t *testing.T) {
	var c Counter
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					c.Inc()
					c.Add(3)
				}
			}
		}()
	}
	var prev int64
	for i := 0; i < 200_000; i++ {
		v := c.Value()
		if v < prev {
			t.Fatalf("counter went backwards: %d after %d", v, prev)
		}
		prev = v
	}
	close(done)
	wg.Wait()
	if c.Value()%4 != 0 {
		t.Fatalf("counter %d not a multiple of 4 (each writer round adds 4)", c.Value())
	}
}

// TestHistogramBatchMatchesObserve: observations gathered in a batch —
// one at a time and pre-bucketed, flushed in several rounds — leave the
// histogram exactly as the same observations made through Observe.
func TestHistogramBatchMatchesObserve(t *testing.T) {
	bounds := []float64{1, 2, 4, 8}
	direct, batched := NewLiveHistogram(bounds), NewLiveHistogram(bounds)
	b := NewHistogramBatch(batched)
	xs := []float64{0, 1, 1.5, 2, 3, 4, 7, 8, 9, 100, 2.9}
	for round := 0; round < 3; round++ {
		for _, x := range xs {
			direct.Observe(x)
			b.Observe(x)
		}
		// Pre-bucketed: three 1s, two 3s, one 12 (overflow).
		for _, x := range []float64{1, 1, 1, 3, 3, 12} {
			direct.Observe(x)
		}
		b.AddCounts([]int64{3, 0, 2, 0, 1}, 3+6+12)
		if round == 1 {
			if got := batched.Total(); got != int64(len(xs)+6) {
				t.Fatalf("before the second flush the histogram holds %d observations, want the first round's %d", got, len(xs)+6)
			}
		}
		b.Flush()
		b.Flush() // an empty flush publishes nothing
		if got, want := batched.Snapshot(), direct.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: batched %+v, observed %+v", round, got, want)
		}
	}
	for _, x := range []float64{-1, 0, 1, 1.01, 2, 2.5, 8, 8.5} {
		k := direct.Bucket(x)
		if k < len(bounds) && (x > bounds[k] || k > 0 && x <= bounds[k-1]) || k == len(bounds) && x <= bounds[len(bounds)-1] {
			t.Errorf("Bucket(%g) = %d", x, k)
		}
	}
}
