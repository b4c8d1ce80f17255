package runtime_test

import (
	"bytes"
	"testing"

	"repro/internal/obs"
	rt "repro/internal/runtime"
)

// loadedEngine builds a lockstep engine with tr attached, admits one full
// diagonal-shifted workload and ticks it through, returning the engine
// and the slots run.
func loadedEngine(t *testing.T, n int, tr *obs.Tracer) (*rt.Engine, int64) {
	t.Helper()
	e, err := rt.New(rt.Config{N: n, Scheduler: newScheduler(t, "lcf_central_rr", n), Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 3
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			if err := e.Admit(i, (i+r)%n, uint64(r), 0); err != nil {
				t.Fatalf("Admit(%d,%d): %v", i, (i+r)%n, err)
			}
		}
	}
	slots := int64(rounds + 2) // enough slack to drain every VOQ
	for s := int64(0); s < slots; s++ {
		e.Tick()
	}
	return e, slots
}

// TestEngineRegisterScrape renders a live engine's registry to Prometheus
// text and checks the scraped values against the JSON snapshot: the two
// views must agree because they read the same atomics.
func TestEngineRegisterScrape(t *testing.T) {
	const n = 4
	e, slots := loadedEngine(t, n, nil)
	r := obs.NewRegistry()
	e.Register(r)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := obs.ParsePrometheus(&buf)
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}
	snap := e.Snapshot()

	for key, want := range map[string]float64{
		"lcf_engine_slots_total":                                    float64(slots),
		"lcf_engine_admitted_total":                                 float64(snap.Admitted),
		"lcf_engine_delivered_total":                                float64(snap.Delivered),
		"lcf_engine_requested_total":                                float64(snap.Requested),
		"lcf_engine_matched_total":                                  float64(snap.Matched),
		"lcf_engine_backlog_frames":                                 float64(snap.Backlog),
		"lcf_engine_occupied_voqs":                                  float64(snap.OccupiedVOQs),
		"lcf_match_size_count":                                      float64(slots),
		"lcf_slot_duration_nanoseconds_count":                       float64(slots),
		`lcf_info{scheduler="lcf_central_rr",datapath="voq",n="4"}`: 1,
	} {
		got, ok := s.Value(key)
		if !ok {
			t.Errorf("scrape is missing %s", key)
		} else if got != want {
			t.Errorf("%s = %g, want %g", key, got, want)
		}
	}

	// Per-rule grant counters must account for every grant the engine
	// dispatched or wasted, and agree with the snapshot's map.
	var ruleTotal float64
	for rule, v := range snap.GrantsByRule {
		got, ok := s.Value(`lcf_grants_total{rule="` + rule + `"}`)
		if !ok || got != float64(v) {
			t.Errorf("lcf_grants_total{rule=%q} = %g,%v, want %d", rule, got, ok, v)
		}
		ruleTotal += float64(v)
	}
	if want := float64(snap.Matched + snap.WastedGrants); ruleTotal != want {
		t.Errorf("grants by rule sum to %g, want matched+wasted = %g", ruleTotal, want)
	}
	if _, ok := s.Value(`lcf_grants_total{rule="unattributed"}`); ok {
		t.Error("lcf_central_rr produced unattributed grants")
	}

	// Per-port counters sum to the engine totals.
	var perIn, perOut float64
	for p := 0; p < n; p++ {
		lbl := obs.Labels("input", string(rune('0'+p)))
		if v, ok := s.Value("lcf_input_admitted_total{" + lbl + "}"); ok {
			perIn += v
		} else {
			t.Errorf("missing lcf_input_admitted_total{%s}", lbl)
		}
		if v, ok := s.Value(`lcf_output_delivered_total{` + obs.Labels("output", string(rune('0'+p))) + `}`); ok {
			perOut += v
		}
	}
	if perIn != float64(snap.Admitted) || perOut != float64(snap.Delivered) {
		t.Errorf("per-port sums %g/%g, want %d/%d", perIn, perOut, snap.Admitted, snap.Delivered)
	}
}

// TestEngineTraceAttribution runs a traced engine and checks the drained
// events carry full grant attribution from the LCF scheduler.
func TestEngineTraceAttribution(t *testing.T) {
	const n = 4
	tr := obs.NewTracer(n, 64)
	tr.Enable()
	e, slots := loadedEngine(t, n, tr)

	evs := tr.Drain()
	if int64(len(evs)) != slots {
		t.Fatalf("drained %d events, want %d", len(evs), slots)
	}
	snap := e.Snapshot()
	granted := 0
	for k, ev := range evs {
		if ev.Slot != int64(k) {
			t.Fatalf("event %d has slot %d", k, ev.Slot)
		}
		granted += len(ev.Grants)
		for _, g := range ev.Grants {
			if g.Rule == "unattributed" || g.Choices < 1 {
				t.Errorf("slot %d grant %d→%d lacks attribution: rule=%s choices=%d",
					ev.Slot, g.In, g.Out, g.Rule, g.Choices)
			}
		}
	}
	if granted != int(snap.Matched+snap.WastedGrants) {
		t.Errorf("trace shows %d grants, engine counted %d", granted, snap.Matched+snap.WastedGrants)
	}
	if got := snap.MatchSize.Total; got != slots {
		t.Errorf("match-size histogram has %d samples, want %d", got, slots)
	}
}

// TestEngineTracerDisabledCounts checks a disabled tracer attached to a
// running engine records nothing.
func TestEngineTracerDisabledCounts(t *testing.T) {
	tr := obs.NewTracer(4, 64)
	loadedEngine(t, 4, tr)
	if tr.Emitted() != 0 {
		t.Fatalf("disabled tracer emitted %d events", tr.Emitted())
	}
}

// TestPortBacklogCountsPIFOFrames holds the per-port backlog — the JSON
// snapshot's Ports and the lcf_input_backlog_frames series — to the
// engine backlog on a class engine, where admitted frames wait in PIFOs
// before the class fill moves them into VOQ heads: the ports must sum to
// the engine's figure both while every frame is in a PIFO and after
// slots have moved some of them on.
func TestPortBacklogCountsPIFOFrames(t *testing.T) {
	const n, frames = 4, 10
	e, err := rt.New(rt.Config{N: n, Scheduler: newScheduler(t, "lcf_central_rr", n), Classes: testClassList()})
	if err != nil {
		t.Fatal(err)
	}
	r := obs.NewRegistry()
	e.Register(r)
	for k := 0; k < frames; k++ {
		if err := e.AdmitClass(0, 1+k%(n-1), k%3, uint64(k), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	for slot := 0; slot < 3; slot++ {
		snap := e.Snapshot()
		if slot == 0 && (snap.Backlog != frames || snap.Ports[0].Backlog != frames) {
			t.Fatalf("before any slot: backlog %d, port 0 backlog %d, want %d each", snap.Backlog, snap.Ports[0].Backlog, frames)
		}
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		s, err := obs.ParsePrometheus(&buf)
		if err != nil {
			t.Fatal(err)
		}
		var ports, series int64
		for p := 0; p < n; p++ {
			ports += snap.Ports[p].Backlog
			v, ok := s.Value("lcf_input_backlog_frames{" + obs.Labels("input", string(rune('0'+p))) + "}")
			if !ok {
				t.Fatalf("scrape is missing lcf_input_backlog_frames for input %d", p)
			}
			if int64(v) != snap.Ports[p].Backlog {
				t.Errorf("slot %d: lcf_input_backlog_frames{input=%d} = %g, snapshot port backlog %d", slot, p, v, snap.Ports[p].Backlog)
			}
			series += int64(v)
		}
		engine, _ := s.Value("lcf_engine_backlog_frames")
		if ports != snap.Backlog || series != int64(engine) || int64(engine) != snap.Backlog {
			t.Errorf("slot %d: ports sum to %d, input series to %d; engine backlog %d (gauge %g)", slot, ports, series, snap.Backlog, engine)
		}
		e.Tick()
	}
}
