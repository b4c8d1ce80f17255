package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	lcf "repro"
	"repro/internal/matching"
	"repro/internal/sched"
)

// Span kinds. A kind's parent is fixed, so a span needs only its kind,
// its interval and the slot/cell/batch number it belongs to.
type spanKind int

const (
	spCell spanKind = iota
	spSlot
	spAdmit
	spTick
	spDecide
	spDrain
	spBatch
	spWrite
	spWaitFirst
	spRead
	spScrape
	numSpanKinds
)

var spanNames = [numSpanKinds]struct{ name, parent string }{
	spCell:      {"cell", ""},
	spSlot:      {"slot", ""},
	spAdmit:     {"runtime.admit", "slot"},
	spTick:      {"runtime.tick", "slot"},
	spDecide:    {"sched.decide", ""}, // parent set per workload: cell or runtime.tick
	spDrain:     {"runtime.drain", "slot"},
	spBatch:     {"batch", ""},
	spWrite:     {"bench.write", "batch"},
	spWaitFirst: {"bench.wait_first", "batch"},
	spRead:      {"bench.read", "batch"},
	spScrape:    {"lcfd.scrape", ""},
}

// span is one stored interval, in nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent"`
	ID     int64  `json:"id"`
}

// storeEvery samples the stored spans: totals cover every span, the
// file keeps the spans of every 16th id so a 400k-slot run stays in
// memory.
const storeEvery = 16

// maxStoredSpans bounds the preallocated span slice (~56 B each).
const maxStoredSpans = 1 << 19

// tracer collects spans in memory and writes them out when the workload
// ends. The measured loops branch on tr != nil around their extra clock
// reads, so an untraced run pays nothing for it. Not safe for concurrent
// use; each wire client owns one.
type tracer struct {
	t0           time.Time
	decideParent string
	spans        []span
	total        [numSpanKinds]struct{ ns, n int64 }
}

// newTracer preallocates room for stored spans; with none, the tracer
// keeps totals only.
func newTracer(decideParent string, stored int) *tracer {
	return &tracer{t0: time.Now(), decideParent: decideParent, spans: make([]span, 0, stored)}
}

// now is nanoseconds since the tracer started.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add records one span of kind k for id.
func (t *tracer) add(k spanKind, id, start, end int64) {
	t.total[k].ns += end - start
	t.total[k].n++
	if id%storeEvery != 0 || len(t.spans) == cap(t.spans) {
		return
	}
	parent := spanNames[k].parent
	if k == spDecide {
		parent = t.decideParent
	}
	t.spans = append(t.spans, span{Name: spanNames[k].name, Start: start, End: end, Parent: parent, ID: id})
}

// mean is the mean duration of kind k's spans in nanoseconds.
func (t *tracer) mean(k spanKind) float64 {
	if t.total[k].n == 0 {
		return 0
	}
	return float64(t.total[k].ns) / float64(t.total[k].n)
}

// merge folds another tracer's spans and totals into t (the wire
// clients each trace their own batches).
func (t *tracer) merge(o *tracer) {
	shift := int64(o.t0.Sub(t.t0))
	for _, s := range o.spans {
		s.Start += shift
		s.End += shift
		if len(t.spans) < cap(t.spans) {
			t.spans = append(t.spans, s)
		}
	}
	for k := range t.total {
		t.total[k].ns += o.total[k].ns
		t.total[k].n += o.total[k].n
	}
}

// write stores the spans as bench/out/trace-<workload>.json.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	raw, err := json.Marshal(struct {
		Workload   string `json:"workload"`
		StoreEvery int    `json:"store_every"`
		Spans      []span `json:"spans"`
	}{workload, storeEvery, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o644)
}

// traceOn reports whether segment (or sim pass) k of a traced run is
// traced: the even ones. Alternating inside one run keeps the two kinds
// of segment under the same host conditions, which two runs one after
// the other are not on a shared sandbox.
func traceOn(k int) bool { return k >= 0 && k%2 == 0 }

// traceOverhead is 1 − traced/untraced throughput, from the per-segment
// rates of a traced run.
func traceOverhead(rates []float64) float64 {
	var on, off []float64
	for k, r := range rates {
		if traceOn(k) {
			on = append(on, r)
		} else {
			off = append(off, r)
		}
	}
	if len(on) == 0 || len(off) == 0 || sustained(off, higher) == 0 {
		return 0
	}
	return 1 - sustained(on, higher)/sustained(off, higher)
}

// tracedSched wraps a scheduler for the traced run: it is handed to the
// simulator or the engine in the scheduler's place, times every
// Schedule call from outside, counts calls and grants, and re-checks
// each matching against the request matrix it was computed from.
type tracedSched struct {
	inner sched.Scheduler
	tr    *tracer
	// off suspends timing, spans and validation (calls and grants are
	// still counted): the traced pass alternates traced and untraced
	// segments and reads the tracing overhead from their difference.
	off bool

	calls, grants, invalid int64
	// validateNs is the wrapper's own checking time, which the workloads
	// subtract from the enclosing span as bench overhead.
	validateNs int64
}

func (w *tracedSched) Name() string { return w.inner.Name() }
func (w *tracedSched) N() int       { return w.inner.N() }

func (w *tracedSched) Schedule(ctx *sched.Context, m *matching.Match) {
	if w.off {
		w.inner.Schedule(ctx, m)
		w.calls++
		w.grants += int64(m.Size())
		return
	}
	t0 := w.tr.now()
	w.inner.Schedule(ctx, m)
	t1 := w.tr.now()
	w.tr.add(spDecide, w.calls, t0, t1)
	w.calls++
	w.grants += int64(m.Size())
	if lcf.ValidateMatch(m, ctx.Req) != nil {
		w.invalid++
	}
	w.validateNs += w.tr.now() - t1
}

// Explain forwards grant attribution so an engine's per-rule counters
// read the same with and without the wrapper.
func (w *tracedSched) Explain(i int) (sched.GrantRule, int) {
	if ex, ok := w.inner.(sched.Explainer); ok {
		return ex.Explain(i)
	}
	return sched.RuleUnattributed, -1
}
