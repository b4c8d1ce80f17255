package closfabric

import (
	"strconv"

	"repro/internal/obs"
	rt "repro/internal/runtime"
)

// Register publishes the fabric's counters into r under the fab_*
// namespace: fabric-wide totals, per-middle routing and liveness, and a
// per-stage roll-up of every engine's core counters labelled {stage,
// index}. Every read function touches only atomics, so scraping is safe
// concurrently with the Tick goroutine. Every name registered here must
// be documented in OBSERVABILITY.md — cmd/lcffab's
// TestFabricMetricsDocumented diffs the registry against the doc in both
// directions, mirroring cmd/lcfd's TestMetricsDocumented for the lcf_*
// namespace.
func (f *Fabric) Register(r *obs.Registry) {
	m := &f.met

	r.GaugeVec("fab_info", "Static fabric info; value is always 1. Labels carry the Clos dimensions, scheduler, middle-selection policy and fault policy.", func() []obs.Sample {
		return []obs.Sample{{
			Labels: obs.Labels(
				"scheduler", f.ingress[0].SchedulerName(),
				"m", strconv.Itoa(f.m),
				"k", strconv.Itoa(f.k),
				"r", strconv.Itoa(f.r),
				"n", strconv.Itoa(f.n),
				"select", f.cfg.Select.String(),
				"policy", f.cfg.Engine.FaultPolicy.String(),
			),
			Value: 1,
		}}
	})

	r.Counter("fab_slots_total", "Completed fabric slots.", f.slot.Load)
	r.Counter("fab_injected_total", "Frames accepted into the fabric by Admit.", m.Injected.Value)
	r.Counter("fab_delivered_total", "Frames delivered at an external egress port.", m.Delivered.Value)
	r.Counter("fab_rejected_total", "Admit calls refused for a dead path (failed middle stage or no live middle).", m.Rejected.Value)
	r.Counter("fab_backpressured_total", "Admit calls refused because the ingress VOQ was full.", m.Backpressured.Value)
	r.Counter("fab_dropped_total", "Frames dropped fabric-wide by the fault policy (engine strand flushes plus link drops toward dead switches).", m.Dropped.Value)
	r.Counter("fab_link_nacks_total", "Inter-switch link admissions refused by the downstream switch (full VOQ or switch down); the frame holds and retries.", m.LinkNacks.Value)
	r.Counter("fab_reordered_total", "Frames delivered after a later-admitted frame of the same (src, dst) pair: the pair's frames crossed different middles and overtook each other.", m.Reordered.Value)
	r.Gauge("fab_resident_frames", "Frames currently inside the fabric (admitted, not yet delivered or dropped).", func() float64 {
		return float64(m.Injected.Value() - m.Delivered.Value() - m.Dropped.Value())
	})
	r.Histogram("fab_latency_slots", "End-to-end delivery latency in fabric slots (admission to external egress).", m.Latency.Snapshot)

	midLabels := make([]string, f.m)
	for c := 0; c < f.m; c++ {
		midLabels[c] = obs.Labels("middle", strconv.Itoa(c))
	}
	r.CounterVec("fab_routed_total", "Frames routed through each middle switch, decided at admission.", func() []obs.Sample {
		s := make([]obs.Sample, f.m)
		for c := 0; c < f.m; c++ {
			s[c] = obs.Sample{Labels: midLabels[c], Value: float64(m.Routed[c].Value())}
		}
		return s
	})
	r.GaugeVec("fab_middle_live", "Per middle switch liveness: 1 up, 0 failed via FailMiddle.", func() []obs.Sample {
		s := make([]obs.Sample, f.m)
		for c := 0; c < f.m; c++ {
			s[c] = obs.Sample{Labels: midLabels[c], Value: float64(m.MiddleLive[c].Value())}
		}
		return s
	})

	// Per-stage engine roll-up. One sample per switch engine, labelled by
	// stage and index — the fabric-shaped view of the same atomics the
	// engines expose through their own lcf_* registration.
	type pos struct {
		labels string
		eng    *rt.Engine
	}
	var positions []pos
	add := func(stage uint8, idx int, e *rt.Engine) {
		positions = append(positions, pos{
			labels: obs.Labels("stage", StageName(stage), "index", strconv.Itoa(idx)),
			eng:    e,
		})
	}
	for g := 0; g < f.r; g++ {
		add(StageIngress, g, f.ingress[g])
	}
	for c := 0; c < f.m; c++ {
		add(StageMiddle, c, f.middle[c])
	}
	for g := 0; g < f.r; g++ {
		add(StageEgress, g, f.egress[g])
	}
	stageVec := func(read func(*rt.Engine) float64) func() []obs.Sample {
		return func() []obs.Sample {
			s := make([]obs.Sample, len(positions))
			for i, p := range positions {
				s[i] = obs.Sample{Labels: p.labels, Value: read(p.eng)}
			}
			return s
		}
	}
	r.GaugeVec("fab_stage_backlog_frames", "Frames queued in each switch engine's VOQs, labelled {stage, index}.", stageVec(func(e *rt.Engine) float64 {
		return float64(e.Stats().Backlog.Value())
	}))
	r.CounterVec("fab_stage_matched_total", "Grants dispatched by each switch engine, labelled {stage, index}.", stageVec(func(e *rt.Engine) float64 {
		return float64(e.Stats().Matched.Value())
	}))
	r.CounterVec("fab_stage_dropped_total", "Frames flushed from stranded VOQs by each switch engine, labelled {stage, index}.", stageVec(func(e *rt.Engine) float64 {
		return float64(e.Stats().DroppedFault.Value())
	}))
	r.GaugeVec("fab_stage_stranded_frames", "Frames held behind failed links in each switch engine, labelled {stage, index}.", stageVec(func(e *rt.Engine) float64 {
		return float64(e.Stats().Stranded.Value())
	}))
}
