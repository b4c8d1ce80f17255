package runtime

import (
	"strconv"

	"repro/internal/obs"
	"repro/internal/sched"
)

// Register publishes the engine's live counters into r under the lcf_*
// namespace, in Prometheus conventions (cumulative *_total counters,
// instantaneous gauges, cumulative-bucket histograms). Every metric reads
// the same atomics Snapshot reads, so the JSON and Prometheus views of
// /metrics can never disagree about a value's source.
//
// The read functions run at scrape time on the scraper's goroutine; they
// are lock-free except the per-port backlog gauge, which briefly takes
// each input lock exactly like Snapshot does. Register itself is not
// hot-path code and allocates freely.
//
// Every name registered here must be documented in OBSERVABILITY.md —
// cmd/lcfd's TestMetricsDocumented diffs the registry against the doc in
// both directions.
func (e *Engine) Register(r *obs.Registry) {
	m := &e.met
	n := e.n

	r.GaugeVec("lcf_info", "Static engine info; value is always 1. Labels carry the scheduler name, datapath and port count.", func() []obs.Sample {
		return []obs.Sample{{
			Labels: obs.Labels("scheduler", e.SchedulerName(), "datapath", e.DatapathName(), "n", strconv.Itoa(n)),
			Value:  1,
		}}
	})

	r.Counter("lcf_engine_slots_total", "Slots the arbiter ran; it stalls while the switch is empty.", e.slot.Load)
	r.Counter("lcf_engine_parks_total", "Times the live arbiter stopped its slot clock because the switch was empty.", m.Parks.Value)
	r.Counter("lcf_engine_admitted_total", "Frames accepted by Admit.", m.Admitted.Value)
	r.Counter("lcf_engine_backpressured_total", "Admit calls rejected because the target VOQ was full.", m.Backpressured.Value)
	r.Counter("lcf_engine_delivered_total", "Frames handed to an output delivery channel.", m.Delivered.Value)
	r.Counter("lcf_engine_requested_total", "Request-matrix bits presented to the scheduler, summed over slots.", m.Requested.Value)
	r.Counter("lcf_engine_matched_total", "Grants dispatched across the fabric, summed over slots.", m.Matched.Value)
	r.Counter("lcf_engine_wasted_grants_total", "Grants that could not dispatch (drained VOQ or full output channel).", m.WastedGrants.Value)
	r.Counter("lcf_engine_masked_outputs_total", "Request bits suppressed because the output delivery channel was full.", m.MaskedOutputs.Value)

	r.Gauge("lcf_engine_backlog_frames", "Frames currently queued across all VOQs.", func() float64 {
		return float64(m.Backlog.Value())
	})
	r.Gauge("lcf_engine_occupied_voqs", "Non-empty VOQs at the last slot snapshot (before output masking).", func() float64 {
		return float64(m.OccupiedVOQs.Value())
	})

	r.Counter("lcf_engine_fault_rejected_total", "Admit calls refused because the source input or destination output link was down.", m.RejectedPortDown.Value)
	r.Counter("lcf_engine_fault_masked_total", "Request bits suppressed because a link was down, summed over slots.", m.FaultMasked.Value)
	r.Counter("lcf_engine_fault_dropped_total", "Frames flushed from VOQs stranded behind a failed link (FaultPolicy drop).", m.DroppedFault.Value)
	r.Gauge("lcf_engine_stranded_frames", "Frames currently held in VOQs behind failed links, awaiting recovery (FaultPolicy hold).", func() float64 {
		return float64(m.Stranded.Value())
	})
	r.Gauge("lcf_engine_undrained_frames", "Frames still queued when Close's bounded drain gave up (stuck consumers or held stranded frames).", func() float64 {
		return float64(m.Undrained.Value())
	})
	r.GaugeVec("lcf_link_up", "Per-port link state: 1 up, 0 failed. Labels: port, dir (input|output).", func() []obs.Sample {
		s := make([]obs.Sample, 0, 2*n)
		for p := 0; p < n; p++ {
			in, out := e.LinkDown(p)
			s = append(s,
				obs.Sample{Labels: obs.Labels("port", strconv.Itoa(p), "dir", "input"), Value: upValue(!in)},
				obs.Sample{Labels: obs.Labels("port", strconv.Itoa(p), "dir", "output"), Value: upValue(!out)},
			)
		}
		return s
	})

	r.CounterVec("lcf_grants_total", "Grants by the LCF decision rule that produced them (rule label: lcf, diagonal, prescheduled, unattributed).", func() []obs.Sample {
		s := make([]obs.Sample, 0, sched.NumGrantRules)
		for rule := sched.GrantRule(0); rule < sched.NumGrantRules; rule++ {
			v := m.GrantsByRule[rule].Value()
			if v == 0 && rule == sched.RuleUnattributed {
				continue // omit the catch-all bucket until it fires
			}
			s = append(s, obs.Sample{Labels: obs.Labels("rule", rule.String()), Value: float64(v)})
		}
		return s
	})

	inputLabels := make([]string, n)
	outputLabels := make([]string, n)
	for p := 0; p < n; p++ {
		inputLabels[p] = obs.Labels("input", strconv.Itoa(p))
		outputLabels[p] = obs.Labels("output", strconv.Itoa(p))
	}
	r.CounterVec("lcf_input_admitted_total", "Frames accepted by Admit, per input port.", func() []obs.Sample {
		s := make([]obs.Sample, n)
		for p := 0; p < n; p++ {
			s[p] = obs.Sample{Labels: inputLabels[p], Value: float64(m.PerInputAdmitted[p].Value())}
		}
		return s
	})
	r.CounterVec("lcf_input_backpressured_total", "Admit rejections, per input port.", func() []obs.Sample {
		s := make([]obs.Sample, n)
		for p := 0; p < n; p++ {
			s[p] = obs.Sample{Labels: inputLabels[p], Value: float64(m.PerInputBackpressured[p].Value())}
		}
		return s
	})
	r.CounterVec("lcf_output_delivered_total", "Frames delivered, per output port.", func() []obs.Sample {
		s := make([]obs.Sample, n)
		for p := 0; p < n; p++ {
			s[p] = obs.Sample{Labels: outputLabels[p], Value: float64(m.PerOutputDelivered[p].Value())}
		}
		return s
	})
	r.GaugeVec("lcf_input_backlog_frames", "Frames currently queued, per input port.", func() []obs.Sample {
		s := make([]obs.Sample, n)
		for p := 0; p < n; p++ {
			e.inMu[p].Lock()
			backlog := e.dp.InputBacklog(p)
			e.inMu[p].Unlock()
			s[p] = obs.Sample{Labels: inputLabels[p], Value: float64(backlog)}
		}
		return s
	})

	e.registerFlow(r)
	e.registerClasses(r)

	r.Histogram("lcf_voq_depth", "Per-slot samples of every non-empty VOQ's backlog (frames).", m.VOQDepth.Snapshot)
	r.Histogram("lcf_match_size", "Matching cardinality per slot (grants in the computed matching).", m.MatchSize.Snapshot)
	r.Histogram("lcf_slot_duration_nanoseconds", "Arbiter compute time per slot, in nanoseconds.", m.SlotLatency.Snapshot)

	// Datapath-specific instruments: the CICQ datapath publishes its
	// cicq_* crosspoint gauges and per-arbiter grant counters through the
	// same registry, so one scrape covers both layers.
	if reg, ok := e.dp.(interface{ Register(*obs.Registry) }); ok {
		reg.Register(r)
	}
}

func upValue(up bool) float64 {
	if up {
		return 1
	}
	return 0
}
