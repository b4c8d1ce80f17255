package main

import (
	"runtime"
	"time"

	lcf "repro"
	"repro/internal/pifo"
	"repro/internal/rng"
	"repro/internal/traffic"
)

// The engine workloads' fixed shape.
const (
	engN         = 64
	engLoad      = 0.9
	engCap       = 256 // VOQCap and OutCap
	engScheduler = "lcf_central_rr"
	engClasses   = "rt:0:4:32,quick:1:2:128,bulk:2:1"
	engRank      = pifo.RankDeadline
)

// engClassWeights is the per-frame class mix, rt:quick:bulk.
var engClassWeights = [3]int{1, 2, 5}

// engSizes are the slot counts of an engine run. The arrival trace is
// generated once per set-up and replayed (wrapping after warmup+exact
// slots), which keeps the generator out of the measured loop; the
// slot-domain statistics cover the frames admitted in the exact window
// only, so they depend on the seed and not on how fast the host is.
type engSizes struct {
	warmup, exact int64
	probeSlots    int
}

func engSizesFor(smoke, classes bool) engSizes {
	switch {
	case smoke:
		return engSizes{warmup: 200, exact: 1500, probeSlots: 1500}
	case classes:
		return engSizes{warmup: 2000, exact: 60000, probeSlots: 20000}
	}
	return engSizes{warmup: 2000, exact: 100000, probeSlots: 20000}
}

// arrivals is a replayable arrival trace: for every slot and input the
// destination (or traffic.NoPacket) and, on the class workload, the
// frame's class.
type arrivals struct {
	n     int
	slots int64
	dst   []int8
	class []uint8
	genNs float64 // generator cost per slot, measured while generating
}

// generateArrivals draws the trace from the seed. It fills a (the
// previous set-up's trace) in place when given one, so repeated set-ups
// cost their generation time but hold one trace's memory.
func generateArrivals(a *arrivals, n int, slots int64, seed uint64, classes bool) *arrivals {
	if a == nil {
		a = &arrivals{n: n, slots: slots, dst: make([]int8, slots*int64(n))}
		if classes {
			a.class = make([]uint8, len(a.dst))
		}
	}
	g := traffic.NewBernoulli(n, engLoad, traffic.NewUniform(n), seed)
	t0 := time.Now()
	for s := int64(0); s < slots; s++ {
		row := a.dst[s*int64(n):]
		for i := 0; i < n; i++ {
			row[i] = int8(g.Next(i))
		}
		g.Advance()
	}
	a.genNs = float64(time.Since(t0).Nanoseconds()) / float64(slots)
	if classes {
		r := rng.New(splitmix(seed, 77))
		total := engClassWeights[0] + engClassWeights[1] + engClassWeights[2]
		for k := range a.class {
			switch x := r.Intn(total); {
			case x < engClassWeights[0]:
				a.class[k] = 0
			case x < engClassWeights[0]+engClassWeights[1]:
				a.class[k] = 1
			default:
				a.class[k] = 2
			}
		}
	}
	return a
}

// engineRun is one constructed engine with its driver state.
type engineRun struct {
	e       *lcf.RuntimeEngine
	outs    []<-chan lcf.RuntimeFrame
	arr     *arrivals
	classes bool
	sz      engSizes
	sched   *tracedSched // nil when untraced

	slot     int64 // slots driven so far
	nextSeq  []uint64
	order    *orderChecker
	offered  int64
	refused  int64
	received int64
	misorder int64

	// Slot-domain statistics over the exact window.
	delaySum, delayN int64
	tailHist         slotHist // delays of the class the tail is read for
	backlogSum       int64
	exactAdmitted    int64
	exactDelivered   int64
	exactViolations  int64 // delivered past their class deadline

	// The wrapper's call and grant counts at the exact window's edges.
	calls0, grants0, exactCalls, exactGrants int64

	// Sampled Admit→Output host latencies by segment; seg is the segment
	// being measured (past the last one, nothing is recorded).
	lat segSamples
	seg int
}

func newEngineRun(seed uint64, classes bool, sz engSizes, tr *tracer, arr *arrivals) (*engineRun, error) {
	s, err := lcf.NewScheduler(engScheduler, engN, lcf.Options{})
	if err != nil {
		return nil, err
	}
	r := &engineRun{classes: classes, sz: sz, tailHist: make(slotHist, 8192), seg: runSegments}
	if tr != nil {
		r.sched = &tracedSched{inner: s, tr: tr, off: true}
		s = r.sched
	}
	cfg := lcf.RuntimeConfig{N: engN, Scheduler: s, VOQCap: engCap, OutCap: engCap}
	streams := engN * engN
	if classes {
		if cfg.Classes, err = pifo.ParseClasses(engClasses); err != nil {
			return nil, err
		}
		cfg.Rank = engRank
		streams *= len(cfg.Classes)
	}
	if r.e, err = lcf.NewRuntime(cfg); err != nil {
		return nil, err
	}
	r.arr = generateArrivals(arr, engN, sz.warmup+sz.exact, seed, classes)
	r.nextSeq = make([]uint64, streams)
	r.order = newOrderChecker(streams)
	r.outs = make([]<-chan lcf.RuntimeFrame, engN)
	for j := range r.outs {
		r.outs[j] = r.e.Output(j)
	}
	return r, nil
}

// inExact reports whether a frame admitted at the given engine slot
// belongs to the exact window.
func (r *engineRun) inExact(admitted int64) bool {
	return admitted >= r.sz.warmup && admitted < r.sz.warmup+r.sz.exact
}

// admit offers the current slot's arrivals, stamping each frame with
// the host time so its delivery can be timed.
func (r *engineRun) admit(stamp uint64) {
	n := r.arr.n
	base := (r.slot % r.arr.slots) * int64(n)
	exact := r.inExact(r.slot)
	for i := 0; i < n; i++ {
		d := int(r.arr.dst[base+int64(i)])
		if d < 0 {
			continue
		}
		var err error
		stream := i*n + d
		if r.classes {
			c := int(r.arr.class[base+int64(i)])
			stream += c * n * n
			err = r.e.AdmitClass(i, d, c, r.nextSeq[stream], stamp, 0)
		} else {
			err = r.e.Admit(i, d, r.nextSeq[stream], stamp)
		}
		r.offered++
		if err != nil {
			r.refused++
			continue
		}
		r.nextSeq[stream]++
		if exact {
			r.exactAdmitted++
		}
	}
}

// drain empties every output channel, checking each frame, and returns
// the stamp of one of them (0 when the slot delivered nothing).
func (r *engineRun) drain() (stamp uint64) {
	n := r.arr.n
	for j, ch := range r.outs {
		for more := true; more; {
			select {
			case f, ok := <-ch:
				if !ok {
					more = false
					break
				}
				r.received++
				stream := f.Src*n + j
				if f.Class >= 0 {
					stream += f.Class * n * n
				}
				if f.Dst != j || !r.order.deliver(stream, f.Seq) {
					r.misorder++
				}
				if r.inExact(f.Admitted) {
					d := f.Departed - f.Admitted
					r.delaySum += d
					r.delayN++
					r.exactDelivered++
					if f.Class <= 0 { // classless, or class rt
						r.tailHist.add(d)
					}
					if f.Deadline >= 0 && f.Departed > f.Deadline {
						r.exactViolations++
					}
				}
				stamp = f.Stamp
			default:
				more = false
			}
		}
	}
	return stamp
}

// step drives one slot: admit, tick, drain. Traced, it also records the
// slot's spans.
func (r *engineRun) step(t0 time.Time, tr *tracer) {
	if w := r.sched; w != nil {
		switch r.slot {
		case r.sz.warmup:
			r.calls0, r.grants0 = w.calls, w.grants
		case r.sz.warmup + r.sz.exact:
			r.exactCalls, r.exactGrants = w.calls-r.calls0, w.grants-r.grants0
		}
	}
	now := uint64(time.Since(t0))
	if tr == nil {
		r.admit(now)
		r.e.Tick()
		if stamp := r.drain(); stamp != 0 && r.seg < len(r.lat) {
			r.lat[r.seg] = append(r.lat[r.seg], float64(uint64(time.Since(t0))-stamp))
		}
	} else {
		a0 := tr.now()
		r.admit(now)
		a1 := tr.now()
		r.e.Tick()
		a2 := tr.now()
		stamp := r.drain()
		a3 := tr.now()
		if stamp != 0 && r.seg < len(r.lat) {
			r.lat[r.seg] = append(r.lat[r.seg], float64(uint64(time.Since(t0))-stamp))
		}
		tr.add(spAdmit, r.slot, a0, a1)
		tr.add(spTick, r.slot, a1, a2)
		tr.add(spDrain, r.slot, a2, a3)
		tr.add(spSlot, r.slot, a0, tr.now())
	}
	if r.inExact(r.slot) {
		r.backlogSum += r.e.Stats().Backlog.Value()
	}
	r.slot++
}

// finish stops admitting, ticks until the engine is empty, closes it
// and accounts every frame.
func (r *engineRun) finish(f *failures) {
	for guard := 0; r.e.Stats().Backlog.Value() > 0 && guard < 4*engN*engCap; guard++ {
		r.e.Tick()
		r.drain()
	}
	r.e.Close()
	r.drain()
	f.attempted += r.offered
	f.fail(r.refused, "%d frames refused (backpressure)", r.refused)
	admitted := r.offered - r.refused
	f.fail(admitted-r.received, "%d frames undelivered after Close", admitted-r.received)
	f.fail(r.misorder, "%d frames duplicated or out of order", r.misorder)
}

// runEngine is workloads engine_voq_n64 and engine_class_n64.
func runEngine(cfg runConfig, tr *tracer, classes bool) (*outcome, error) {
	out := newOutcome()
	sz := engSizesFor(cfg.smoke, classes)

	// Set-up: generate the arrival trace, build the engine, run the
	// warm-up slots. Earlier set-ups are finished and dropped.
	var (
		run    *engineRun
		arr    *arrivals
		setups []float64
		t0     = time.Now()
	)
	for k := 0; k < cfg.setups; k++ {
		if run != nil {
			var drop failures
			run.finish(&drop)
			run = nil
			runtime.GC() // so the peak (mem_mb) is one engine's, not the set-ups' sum
		}
		s0 := time.Now()
		var err error
		if run, err = newEngineRun(cfg.seed, classes, sz, tr, arr); err != nil {
			return nil, err
		}
		arr = run.arr
		for run.slot < sz.warmup {
			run.step(t0, nil)
		}
		setups = append(setups, time.Since(s0).Seconds())
	}
	out.e2e["setup_s"] = median(setups)

	var before runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}

	// Measure: runSegments equal time segments, then on past the exact
	// window if the host was too slow to cover it in time.
	const segments = runSegments
	run.lat, run.seg = newSegSamples(segments, 1<<14), 0
	start := time.Now()
	startSlot, startFrames := run.slot, run.received
	var startCalls int64
	if tr != nil {
		startCalls = run.sched.calls
	}
	marksFrames := []mark{{0, 0}}
	marksSlots := []mark{{0, 0}}
	// traced counts what the traced segments covered (a traced run
	// alternates; see traceOn), the base of the per-layer figures.
	var traced struct{ slots, frames, offered int64 }
	segSlot, segFrames, segOffered := run.slot, run.received, run.offered
	for seg := 0; seg < segments; {
		segTr := tr
		if tr != nil {
			if !traceOn(seg) {
				segTr = nil
			}
			run.sched.off = segTr == nil
		}
		for k := 0; k < 16; k++ {
			run.step(t0, segTr)
		}
		if el := time.Since(start); el >= cfg.dur*time.Duration(seg+1)/segments {
			marksFrames = append(marksFrames, mark{el.Seconds(), float64(run.received - startFrames)})
			marksSlots = append(marksSlots, mark{el.Seconds(), float64(run.slot - startSlot)})
			if segTr != nil {
				traced.slots += run.slot - segSlot
				traced.frames += run.received - segFrames
				traced.offered += run.offered - segOffered
			}
			segSlot, segFrames, segOffered = run.slot, run.received, run.offered
			seg++
			run.seg++
		}
	}
	measuredSlots := run.slot - startSlot
	var after runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&after)
		run.sched.off = true // the slots below are outside the measurement
		if calls := run.sched.calls - startCalls; calls != measuredSlots {
			out.fail(1, "scheduler ran %d times in %d slots", calls, measuredSlots)
		}
	}
	// Keep the load on until the last frame of the exact window is out:
	// a frame's delay depends on the arrivals behind it, so stopping them
	// early (on a slow host, or a short run) would change the statistics.
	lastSlot := sz.warmup + sz.exact + 4*engN*engCap // a lost frame must not hang the run
	for run.slot <= sz.warmup+sz.exact || (run.exactDelivered < run.exactAdmitted && run.slot < lastSlot) {
		run.step(t0, nil)
	}
	snap := run.e.Snapshot()
	run.finish(&out.failures)

	run.lat.sortAll()
	latCount, latTypical := run.lat.count()
	out.pTail = tailPercentile(latTypical, 0.99)
	out.e2e["frames_per_s"] = sustained(segmentRates(marksFrames), higher)
	out.e2e["slots_per_s"] = sustained(segmentRates(marksSlots), higher)
	out.e2e["rtt_p50_us"] = run.lat.percentile(0.50) / 1000
	out.e2e["rtt_p99_us"] = run.lat.percentile(out.pTail) / 1000
	if run.delayN > 0 {
		out.e2e["delay_mean_slots"] = float64(run.delaySum) / float64(run.delayN)
	}
	out.e2e["delay_p99_slots"] = run.tailHist.percentile(0.99)
	out.e2e["mem_mb"] = selfPeakMB()
	out.e2e["ok_share"] = out.okShare()
	out.samples["frames_per_s"] = segments
	out.samples["slots_per_s"] = segments
	out.samples["rtt_p50_us"] = int64(latCount)
	out.samples["rtt_p99_us"] = int64(latCount)
	out.samples["delay_mean_slots"] = run.delayN
	out.samples["delay_p99_slots"] = run.tailHist.total()
	if run.exactDelivered != run.exactAdmitted {
		out.fail(1, "exact window: admitted %d, delivered %d", run.exactAdmitted, run.exactDelivered)
	}

	if tr != nil {
		w := run.sched
		slots := float64(traced.slots)
		decide := float64(tr.total[spDecide].ns) / slots
		validate := float64(w.validateNs) / slots
		tick := tr.mean(spTick) - validate
		core := probeSwitchcore(run.arr, sz.probeSlots)
		out.layer["sched.decide_ns"] = tr.mean(spDecide)
		out.layer["sched.calls"] = float64(run.exactCalls)
		out.layer["sched.grants_per_call"] = float64(run.exactGrants) / float64(max(run.exactCalls, 1))
		out.layer["sched.invalid_matches"] = float64(w.invalid)
		out.layer["traffic.gen_ns"] = run.arr.genNs
		out.layer["switchcore.slot_ns"] = core.slotNs
		out.layer["switchcore.self_ns"] = core.slotNs - core.decideNs
		out.layer["runtime.admit_ns"] = float64(tr.total[spAdmit].ns) / float64(traced.offered)
		out.layer["runtime.tick_ns"] = tick
		out.layer["runtime.tick_self_ns"] = tick - decide
		out.layer["runtime.overhead_ns"] = tick - decide - (core.slotNs - core.decideNs)
		out.layer["runtime.drain_ns"] = float64(tr.total[spDrain].ns) / float64(traced.frames)
		out.layer["runtime.allocs_per_slot"] = float64(after.Mallocs-before.Mallocs) / float64(measuredSlots)
		out.layer["runtime.bytes_per_slot"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(measuredSlots)
		out.layer["runtime.slot_p99_ns"] = snap.SlotLatencyP99
		out.layer["runtime.backlog_mean"] = float64(run.backlogSum) / float64(sz.exact)
		out.layer["runtime.admitted"] = float64(run.exactAdmitted)
		out.layer["runtime.delivered"] = float64(run.exactDelivered)
		out.layer["runtime.refused"] = float64(run.refused)
		out.layer["runtime.class_violations"] = float64(run.exactViolations)
		if classes {
			out.layer["pifo.pushpop_ns"] = probePifo(probeIters(cfg.smoke, 2000000))
		}
		out.layer["bench.self_ns"] = tr.mean(spSlot) - tr.mean(spAdmit) - tr.mean(spTick) - tr.mean(spDrain) + validate
		out.layer["bench.segment_spread"] = spreadOf(segmentRates(marksFrames))
		out.layer["bench.trace_overhead_share"] = traceOverhead(segmentRates(marksFrames))
		out.samples["sched.decide_ns"] = tr.total[spDecide].n
		out.samples["runtime.tick_ns"] = tr.total[spTick].n
		if w.invalid > 0 {
			out.fail(w.invalid, "%d matchings failed lcf.ValidateMatch", w.invalid)
		}
	}
	return out, nil
}
