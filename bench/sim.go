package main

import (
	"fmt"
	"sort"
	"time"

	lcf "repro"
	"repro/internal/metrics"
	"repro/internal/traffic"
)

// The sim workload's fixed shape: the paper's Figure 12a cell.
const (
	simN    = 16
	simLoad = 0.9
	simIter = 4
	// simRefScheduler is the scheduler whose queuing delay is the
	// Figure 12a value the workload reports.
	simRefScheduler = "lcf_central_rr"
)

// simSizes are the slot counts of one cell. A run is as many passes
// over the scheduler set as fit in --seconds (each pass with its own
// derived seed); the slot-domain statistics come from the first
// exactPasses passes only, so they depend on the seed and not on how
// fast the host is.
type simSizes struct {
	warmup, measure int64 // per cell
	setupMeasure    int64 // per cell of the set-up's warm-up pass
	exactPasses     int
}

// simHistBuckets sizes the reference scheduler's delay histogram.
const simHistBuckets = 4096

func simSizesFor(smoke bool) simSizes {
	if smoke {
		return simSizes{warmup: 3000, measure: 6000, setupMeasure: 500, exactPasses: 1}
	}
	return simSizes{warmup: 10000, measure: 40000, setupMeasure: 4000, exactPasses: 4}
}

// runSim is workload sim_fig12a_n16.
func runSim(cfg runConfig, tr *tracer) (*outcome, error) {
	out := newOutcome()
	sz := simSizesFor(cfg.smoke)
	names := lcf.Figure12Schedulers()

	// cell runs one (scheduler, seed) simulation through the facade, the
	// way a researcher regenerating the figure would.
	cell := func(name string, seed uint64, warmup, measure int64, hist int, w *tracedSched) (*lcf.SimResult, error) {
		s, err := lcf.NewScheduler(name, simN, lcf.Options{Iterations: simIter, Seed: seed})
		if err != nil {
			return nil, err
		}
		if w != nil {
			w.inner = s
			s = w
		}
		return lcf.Simulate(lcf.SimConfig{
			N: simN, Scheduler: s, Load: simLoad, Seed: seed,
			WarmupSlots: warmup, MeasureSlots: measure, HistogramBuckets: hist,
		})
	}

	// Set-up: one short pass over the scheduler set, which pages the
	// code in and warms the caches the measured passes run from.
	var setups []float64
	for r := 0; r < cfg.setups; r++ {
		t0 := time.Now()
		for k, name := range names {
			if _, err := cell(name, splitmix(cfg.seed, uint64(1000+k)), 1000, sz.setupMeasure, 0, nil); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.e2e["setup_s"] = median(setups)

	var (
		passSlots []float64 // per pass: slots per host second
		frames    int64
		// cost[t][k] is scheduler k's ns per slot in each of its cells,
		// untraced (t = 0) and traced (t = 1) cells apart.
		cost                    = [2][][]float64{make([][]float64, len(names)), make([][]float64, len(names))}
		tracedNs, tracedSlots   int64
		refDelay                metrics.Stream
		refHist                 = make(slotHist, simHistBuckets)
		sched                   tracedSched
		slots                   int64
		exactCalls, exactGrants int64 // the wrapper's counts over the exact passes
		throughput              float64
		dropped                 int64
	)
	sched.tr = tr
	start := time.Now()
	for pass := 0; pass < sz.exactPasses || time.Since(start) < cfg.dur; pass++ {
		// A traced run traces every other pass (see traceOn).
		on := tr != nil && traceOn(pass)
		var slotsInPass int64
		p0 := time.Now()
		for k, name := range names {
			hist := 0
			exact := pass < sz.exactPasses
			if name == simRefScheduler && exact {
				hist = simHistBuckets
			}
			var w *tracedSched
			if on {
				w = &sched
			}
			id := int64(pass*len(names) + k)
			c0 := time.Now()
			res, err := cell(name, splitmix(cfg.seed, uint64(pass*len(names)+k)), sz.warmup, sz.measure, hist, w)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			took := time.Since(c0)
			if on {
				end := tr.now()
				tr.add(spCell, id, end-int64(took), end)
				tracedNs += int64(took)
				tracedSlots += sz.warmup + sz.measure
			}
			out.attempted++
			if c := cellOf(res); !c.conserved() {
				out.fail(1, "%s pass %d: conservation broken: generated %d != departed %d + dropped %d + resident %d",
					name, pass, c.generated, c.departedMeasured, c.dropped, c.stillQueued)
			}
			cellSlots := sz.warmup + sz.measure
			slotsInPass += cellSlots
			frames += res.Counters.Forwarded
			slots += cellSlots
			t := 0
			if on {
				t = 1
			}
			cost[t][k] = append(cost[t][k], float64(took.Nanoseconds())/float64(cellSlots))
			if name == simRefScheduler && exact {
				refDelay.Merge(&res.Delay)
				for v := 0; v < simHistBuckets; v++ {
					refHist[v] += res.Hist.Count(int64(v))
				}
				refHist[simHistBuckets-1] += res.Hist.Overflow()
				throughput = res.Counters.Throughput()
			}
			if exact {
				dropped += res.Counters.DroppedPQ
			}
		}
		if pass == sz.exactPasses-1 {
			exactCalls, exactGrants = sched.calls, sched.grants // of the traced passes among them
		}
		sec := time.Since(p0).Seconds()
		passSlots = append(passSlots, float64(slotsInPass)/sec)
	}
	if sched.invalid > 0 {
		out.fail(sched.invalid, "%d matchings failed lcf.ValidateMatch", sched.invalid)
	}

	// Each scheduler's cost per simulated slot is read at the best
	// quartile of its (untraced) cells, the rule of sustained; the set's
	// rate is a pass at those costs. The researcher's wait per 1000
	// simulated slots is the typical scheduler's cost and the slowest's.
	perSlotNs := make([]float64, len(names))
	setNs := [2]float64{} // ns to advance every scheduler by one slot
	for t := range cost {
		for k, cells := range cost[t] {
			ns := sustained(cells, lower)
			setNs[t] += ns
			if t == 0 {
				perSlotNs[k] = ns
			}
		}
	}
	if setNs[0] > 0 {
		perSetSlot := float64(len(names)) / (setNs[0] / 1e9) // slots per second over the set
		out.e2e["slots_per_s"] = perSetSlot
		out.e2e["frames_per_s"] = perSetSlot * float64(frames) / float64(slots)
	}
	sort.Float64s(perSlotNs)
	out.e2e["rtt_p50_us"] = median(perSlotNs) // ns per slot = µs per 1000 slots
	out.e2e["rtt_p99_us"] = perSlotNs[len(perSlotNs)-1]
	out.e2e["delay_mean_slots"] = refDelay.Mean()
	out.e2e["delay_p99_slots"] = refHist.percentile(0.99)
	out.e2e["mem_mb"] = selfPeakMB()
	out.e2e["ok_share"] = out.okShare()
	out.samples["slots_per_s"] = int64(len(passSlots))
	out.samples["frames_per_s"] = int64(len(passSlots))
	out.samples["rtt_p50_us"] = int64(len(passSlots) * len(names))
	out.samples["rtt_p99_us"] = int64(len(passSlots))
	out.samples["delay_mean_slots"] = refDelay.Count()
	out.samples["delay_p99_slots"] = refHist.total()

	if tr != nil {
		gen := probeTraffic(simN, simLoad, cfg.seed, probeIters(cfg.smoke, 400000))
		slotNs := float64(tracedNs) / float64(tracedSlots)
		decide := float64(tr.total[spDecide].ns) / float64(tracedSlots)
		validate := float64(sched.validateNs) / float64(tracedSlots)
		out.layer["sched.decide_ns"] = tr.mean(spDecide)
		out.layer["sched.calls"] = float64(exactCalls)
		out.layer["sched.grants_per_call"] = float64(exactGrants) / float64(max(exactCalls, 1))
		out.layer["sched.invalid_matches"] = float64(sched.invalid)
		out.layer["traffic.gen_ns"] = gen
		out.layer["simswitch.slot_ns"] = slotNs
		out.layer["simswitch.self_ns"] = slotNs - decide - gen - validate
		out.layer["simswitch.throughput"] = throughput
		out.layer["simswitch.dropped"] = float64(dropped)
		out.layer["bench.self_ns"] = validate
		out.layer["bench.segment_spread"] = spreadOf(passSlots)
		if setNs[0] > 0 && setNs[1] > 0 {
			out.layer["bench.trace_overhead_share"] = 1 - setNs[0]/setNs[1]
		}
		out.samples["sched.decide_ns"] = sched.calls
		out.samples["simswitch.slot_ns"] = tracedSlots
	}
	return out, nil
}

// probeIters scales a standalone probe's loop count down for smoke runs.
func probeIters(smoke bool, n int) int {
	if smoke {
		return n / 50
	}
	return n
}

// probeTraffic times the workload's arrival generator standalone:
// nanoseconds per slot (n Next calls and one Advance).
func probeTraffic(n int, load float64, seed uint64, slots int) float64 {
	g := traffic.NewBernoulli(n, load, traffic.NewUniform(n), seed)
	sink := 0
	t0 := time.Now()
	for s := 0; s < slots; s++ {
		for i := 0; i < n; i++ {
			sink += g.Next(i)
		}
		g.Advance()
	}
	ns := float64(time.Since(t0).Nanoseconds()) / float64(slots)
	if sink == 1<<62 {
		fmt.Println() // keep the loop's result live
	}
	return ns
}
