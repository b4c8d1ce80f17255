package runtime

import (
	"errors"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pifo"
)

// ErrNoClasses reports a classed request on an engine whose class tier
// is disabled (Config.Classes empty).
var ErrNoClasses = errors.New("runtime: class tier not enabled (set Config.Classes)")

// ErrBadClass reports a classed request whose class index is outside
// the configured class list.
var ErrBadClass = errors.New("runtime: class index out of range")

// classTier is the programmable service-class layer in front of the
// VOQs: one bounded PIFO queue plus one rank-function instance per
// (input, output) pair, all guarded by the input's shard lock exactly
// like the VOQ row behind them. Admission's enqueue stage pushes a classed
// frame into the PIFO with a rank computed at admission; classFill (a tick
// phase) moves the minimum-rank frame of each pair into the empty VOQ
// head, so the VOQ degenerates to a depth-1 head register and the rank
// order decides service as late as possible (arXiv:1602.06045's
// PIFO-in-front-of-the-scheduler arrangement).
//
// The tier's footprint follows what is queued, not n²·VOQCap: the
// PIFO heaps grow on demand, and the per-slot phases find their work through the bank's
// occupancy rows — n-bit rows of non-empty PIFOs, the paper's
// request-row representation — instead of probing n² queue headers.
type classTier struct {
	classes []pifo.Class
	rank    string
	// queues holds the n×n PIFOs and their occupancy rows; rankers is
	// n×n in row-major (i*n+j) order. Entry (i, j) of either is guarded
	// by inMu[i].
	queues  *pifo.Bank[Frame]
	rankers []pifo.Ranker

	// dropHook is the per-frame callback the stranded sweep hands
	// FlushVOQ on a class engine (see newDropHook).
	dropHook func(Frame)

	// pending[i] counts frames resident in input i's PIFO row — the
	// lock-free signal that lets classFill and the stranded sweep skip
	// idle inputs without taking their locks.
	pending []metrics.Gauge

	// Per-class accounting, indexed by class. queued is PIFO-resident
	// frames per class (VOQ-head and in-flight frames are counted by the
	// global backlog gauges like any other frame).
	admitted   []metrics.Counter
	delivered  []metrics.Counter
	dropped    []metrics.Counter
	violations []metrics.Counter
	queued     []metrics.Gauge
	latency    []*metrics.LiveHistogram // delivery latency in slots
}

// newClassTier builds the tier: n² (empty) queues and ranker instances.
// The ranker name was validated by Config.normalize, so NewRanker cannot
// fail here except on a broken class list, which is a config error too.
func newClassTier(n int, cfg *Config) (*classTier, error) {
	ct := &classTier{
		classes:    cfg.Classes,
		rank:       cfg.Rank,
		queues:     pifo.NewBank[Frame](n, cfg.VOQCap),
		rankers:    make([]pifo.Ranker, n*n),
		pending:    make([]metrics.Gauge, n),
		admitted:   make([]metrics.Counter, len(cfg.Classes)),
		delivered:  make([]metrics.Counter, len(cfg.Classes)),
		dropped:    make([]metrics.Counter, len(cfg.Classes)),
		violations: make([]metrics.Counter, len(cfg.Classes)),
		queued:     make([]metrics.Gauge, len(cfg.Classes)),
		latency:    make([]*metrics.LiveHistogram, len(cfg.Classes)),
	}
	for c := range ct.latency {
		// Latency buckets 1, 2, 4, … slots; the top bucket comfortably
		// exceeds any drainable backlog (VOQCap + VOQ wait).
		ct.latency[c] = metrics.NewLiveHistogram(metrics.ExponentialBounds(1, 2, 16))
	}
	for k := range ct.rankers {
		rk, err := pifo.NewRanker(cfg.Rank, cfg.Classes)
		if err != nil {
			return nil, err
		}
		ct.rankers[k] = rk
	}
	ct.dropHook = ct.newDropHook(cfg.OnDropped)
	return ct, nil
}

// AdmitClass is Offer for a classed frame from input src to output dst,
// without the Request. The frame waits in the (src,dst) PIFO in rank
// order and trickles into the VOQ head from the next tick on; budget > 0
// overrides the class's SLO budget for this frame (the per-frame deadline
// stamp of the clint ClassData frame), budget ≤ 0 uses the class default.
//
// Errors: ErrNoClasses when the tier is disabled, ErrBadClass for an
// out-of-range class index, and everything Admit can return —
// ErrBackpressure (the PIFO is full), ErrPortDown, ErrClosed,
// ErrBadPort. Safe for concurrent use from any goroutine.
func (e *Engine) AdmitClass(src, dst, class int, seq, stamp uint64, budget int64) error {
	ct := e.classes
	if ct == nil {
		return ErrNoClasses
	}
	if src < 0 || src >= e.n || dst < 0 || dst >= e.n {
		return fmt.Errorf("%w: src %d dst %d (n=%d)", ErrBadPort, src, dst, e.n)
	}
	if class < 0 || class >= len(ct.classes) {
		return fmt.Errorf("%w: class %d (have %d)", ErrBadClass, class, len(ct.classes))
	}
	return e.admit(src, dst, seq, stamp, class, budget)
}

// deadline is the rank stage's SLO binding: the absolute slot a frame of
// class admitted at slot now expires at — now plus the per-frame budget
// when one is given, else plus the class's SLO budget — or -1 when
// neither sets one. A delivery past it counts as an SLO violation.
func (ct *classTier) deadline(class int, budget, now int64) int64 {
	slo := ct.classes[class].SLOSlots
	if budget > 0 {
		slo = budget
	}
	if slo > 0 {
		return now + slo
	}
	return -1
}

// classFill is the tick phase that feeds the VOQs from the PIFOs: for
// every (input, output) pair whose VOQ head is empty and whose links are
// up, pop the minimum-rank frame into the VOQ. Holding each VOQ at
// depth ≤ 1 keeps the rank decision late — a frame's service order is
// fixed only one slot before it can cross the fabric, so a burst of
// urgent traffic overtakes everything still waiting in the PIFO.
// Arbiter-only; runs before the snapshot so filled heads are visible to
// this slot's matching.
//
// The pairs to serve in row i are the set bits of the PIFO occupancy row
// &^ dp.OccupiedRow(i) — a non-empty PIFO in front of an empty VOQ —
// computed a word at a time and walked in ascending j, which is the
// order a 0..n-1 probe of every queue visits them in. Serving pair j
// moves only bit j of either row, so the set fixed before the walk is
// the set a per-pair re-check would find, and the work per slot is
// proportional to the frames moved rather than to n².
func (e *Engine) classFill() {
	ct := e.classes
	if ct == nil {
		return
	}
	n := e.n
	for i := 0; i < n; i++ {
		if ct.pending[i].Value() == 0 {
			continue
		}
		mu := &e.inMu[i]
		mu.Lock()
		if e.dp.InputDown(i) {
			mu.Unlock()
			continue
		}
		ready := ct.queues.Ready(i, e.dp.OccupiedRow(i))
		for j := ready.FirstSet(); j >= 0; j = ready.NextSet(j + 1) {
			if e.dp.OutputDown(j) {
				continue
			}
			f, rank, _ := ct.queues.Pop(i, j)
			ct.rankers[i*n+j].OnPop(rank)
			// Enqueue cannot refuse: the VOQ is empty and VOQCap ≥ 1.
			e.dp.Enqueue(i, j, f)
			ct.pending[i].Add(-1)
			ct.queued[f.Class].Add(-1)
		}
		mu.Unlock()
	}
}

// classSweepInput disposes of input i's PIFO-resident frames stranded
// behind failed links, mirroring sweepStranded's treatment of the VOQs:
// DropStranded drains and counts them, HoldStranded reports them in the
// stranded total. Called by sweepStranded for each input under that input's
// lock; the returned dropped count joins the VOQ flush count in the
// caller's PerInputBacklog / Backlog / DroppedFault accounting.
func (e *Engine) classSweepInput(i int, drop bool) (dropped, stranded int) {
	ct := e.classes
	inDown := e.dp.InputDown(i)
	if inDown && !drop {
		return 0, int(ct.pending[i].Value())
	}
	// Only non-empty PIFOs can hold stranded frames; classDrain clears
	// the bit it is called for, which the NextSet walk has already passed.
	row := ct.queues.Occupied(i)
	for j := row.FirstSet(); j >= 0; j = row.NextSet(j + 1) {
		if !inDown && !e.dp.OutputDown(j) {
			continue
		}
		if drop {
			dropped += e.classDrain(i, j)
		} else {
			stranded += ct.queues.Len(i, j)
		}
	}
	return dropped, stranded
}

// newDropHook builds the per-frame callback the stranded sweep hands
// FlushVOQ on a class engine — once, at construction: a closure built
// per flush would put a heap allocation on the slot path in the fault
// window. It layers per-class drop accounting over Config.OnDropped (a
// flushed VOQ head may be a class frame).
func (ct *classTier) newDropHook(onDropped func(Frame)) func(Frame) {
	return func(f Frame) {
		if f.Class >= 0 {
			ct.dropped[f.Class].Inc()
		}
		if onDropped != nil {
			onDropped(f)
		}
	}
}

// classDrain empties the non-empty PIFO (i,j), running per-class drop
// accounting and the OnDropped hook per frame. Caller holds inMu[i].
func (e *Engine) classDrain(i, j int) int {
	ct := e.classes
	drained := ct.queues.Drain(i, j, func(f Frame) {
		ct.dropped[f.Class].Inc()
		ct.queued[f.Class].Add(-1)
		if e.cfg.OnDropped != nil {
			e.cfg.OnDropped(f)
		}
	})
	ct.pending[i].Add(int64(-drained))
	return drained
}

// observeClassDelivery records per-class latency and SLO outcome for a
// frame crossing the fabric at slot now. Runs on the arbiter's dispatch
// path (everything it touches is atomic, so scrapers read it live), only
// for frames that entered with a class.
func (e *Engine) observeClassDelivery(f Frame, now int64) {
	ct := e.classes
	lat := now - f.Admitted
	ct.latency[f.Class].Observe(float64(lat))
	ct.delivered[f.Class].Inc()
	if f.Deadline >= 0 && now > f.Deadline {
		ct.violations[f.Class].Inc()
		e.cfg.Tracer.EmitClass(now, f.Class, f.Dst, lat)
	}
}

// ClassStat is one class's cumulative accounting in ClassSnapshot.
type ClassStat struct {
	Class      string  `json:"class"`
	Priority   int     `json:"priority"`
	Weight     int     `json:"weight"`
	SLOSlots   int64   `json:"slo_slots,omitempty"`
	Admitted   int64   `json:"admitted"`
	Delivered  int64   `json:"delivered"`
	Dropped    int64   `json:"dropped,omitempty"`
	Violations int64   `json:"slo_violations,omitempty"`
	Queued     int64   `json:"queued"`
	LatencyP50 float64 `json:"latency_p50_slots"`
	LatencyP99 float64 `json:"latency_p99_slots"`
}

// ClassSnapshot is the class tier's section of Snapshot, present only
// when the tier is enabled.
type ClassSnapshot struct {
	Rank    string      `json:"rank"`
	Classes []ClassStat `json:"classes"`
}

// classSnapshot captures the class tier's counters, nil when disabled.
func (e *Engine) classSnapshot() *ClassSnapshot {
	ct := e.classes
	if ct == nil {
		return nil
	}
	s := &ClassSnapshot{Rank: ct.rankName(), Classes: make([]ClassStat, len(ct.classes))}
	for c, cl := range ct.classes {
		s.Classes[c] = ClassStat{
			Class:      cl.Name,
			Priority:   cl.Priority,
			Weight:     cl.Weight,
			SLOSlots:   cl.SLOSlots,
			Admitted:   ct.admitted[c].Value(),
			Delivered:  ct.delivered[c].Value(),
			Dropped:    ct.dropped[c].Value(),
			Violations: ct.violations[c].Value(),
			Queued:     ct.queued[c].Value(),
			LatencyP50: ct.latency[c].Quantile(0.50),
			LatencyP99: ct.latency[c].Quantile(0.99),
		}
	}
	return s
}

func (ct *classTier) rankName() string {
	if ct.rank == "" {
		return pifo.RankFIFO
	}
	return ct.rank
}

// Classes returns the engine's class list, nil when the tier is
// disabled. The index of a class in this slice is the class argument
// AdmitClass expects.
func (e *Engine) Classes() []pifo.Class {
	if e.classes == nil {
		return nil
	}
	return e.classes.classes
}

// ClassLatency returns the live latency histogram (in slots) of class
// c, nil when the tier is disabled or c is out of range. Studies read
// quantiles from it; the scrape path uses registerClasses.
func (e *Engine) ClassLatency(c int) *metrics.LiveHistogram {
	if e.classes == nil || c < 0 || c >= len(e.classes.latency) {
		return nil
	}
	return e.classes.latency[c]
}

// ClassViolations returns the cumulative SLO-violation count of class
// c (0 when the tier is disabled or c out of range).
func (e *Engine) ClassViolations(c int) int64 {
	if e.classes == nil || c < 0 || c >= len(e.classes.violations) {
		return 0
	}
	return e.classes.violations[c].Value()
}

// registerClasses publishes the lcf_class_* metrics; no-op when the
// class tier is disabled so a classless engine's scrape is unchanged.
// Called by Register.
func (e *Engine) registerClasses(r *obs.Registry) {
	ct := e.classes
	if ct == nil {
		return
	}
	labels := make([]string, len(ct.classes))
	for c, cl := range ct.classes {
		labels[c] = obs.Labels("class", cl.Name)
	}
	r.GaugeVec("lcf_class_info", "Static class-tier info; value is always 1. One sample per class with its rank function, priority, weight and SLO budget.", func() []obs.Sample {
		s := make([]obs.Sample, len(ct.classes))
		for c, cl := range ct.classes {
			s[c] = obs.Sample{
				Labels: obs.Labels("class", cl.Name, "rank", ct.rankName(),
					"priority", fmt.Sprint(cl.Priority), "weight", fmt.Sprint(cl.Weight),
					"slo_slots", fmt.Sprint(cl.SLOSlots)),
				Value: 1,
			}
		}
		return s
	})
	counterVec := func(name, help string, counters []metrics.Counter) {
		r.CounterVec(name, help, func() []obs.Sample {
			s := make([]obs.Sample, len(counters))
			for c := range counters {
				s[c] = obs.Sample{Labels: labels[c], Value: float64(counters[c].Value())}
			}
			return s
		})
	}
	counterVec("lcf_class_admitted_total", "Classed frames accepted by the enqueue stage into a PIFO, per class.", ct.admitted)
	counterVec("lcf_class_delivered_total", "Class-tier frames delivered across the fabric, per class.", ct.delivered)
	counterVec("lcf_class_dropped_total", "Class-tier frames flushed from PIFOs or VOQs stranded behind failed links (FaultPolicy drop), per class.", ct.dropped)
	counterVec("lcf_class_slo_violations_total", "Frames delivered after their deadline slot, per class (classes with an SLO budget only).", ct.violations)
	r.GaugeVec("lcf_class_queued_frames", "Frames currently waiting in the PIFO ranking tier, per class (VOQ-head frames count in the engine backlog instead).", func() []obs.Sample {
		s := make([]obs.Sample, len(ct.queued))
		for c := range ct.queued {
			s[c] = obs.Sample{Labels: labels[c], Value: float64(ct.queued[c].Value())}
		}
		return s
	})
	r.HistogramVec("lcf_class_latency_slots", "Admission-to-delivery latency in slots for class-tier frames (PIFO wait + VOQ wait + fabric crossing), per class.", func() []obs.HistogramSample {
		s := make([]obs.HistogramSample, len(ct.latency))
		for c := range ct.latency {
			s[c] = obs.HistogramSample{Labels: labels[c], Snapshot: ct.latency[c].Snapshot()}
		}
		return s
	})
}
