package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	cf "repro/internal/closfabric"
	rt "repro/internal/runtime"
)

// newTestDaemon builds a lockstep fabric daemon (no slot clock, no
// listener), tracing from the start, with slots slots of generated
// traffic already through it.
func newTestDaemon(t *testing.T, slots int) *daemon {
	t.Helper()
	d, err := newDaemon(cf.Config{
		M: 2, K: 2, R: 2,
		Engine: rt.Spec{Seed: 1, FaultPolicy: rt.HoldStranded},
		Select: cf.SelectLeastBacklogged,
	}, 0.6, true)
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < slots; slot++ {
		if err := d.step(); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestFabricMetricsDocumented keeps OBSERVABILITY.md and the fab_*
// registry in lockstep, both directions — the fabric namespace's mirror
// of cmd/lcfd's TestMetricsDocumented for lcf_*.
func TestFabricMetricsDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../OBSERVABILITY.md")
	if err != nil {
		t.Fatalf("OBSERVABILITY.md must ship with the daemon: %v", err)
	}
	registered := newTestDaemon(t, 0).registry.Names()

	re := regexp.MustCompile("`(fab_[a-z0-9_]+)`")
	documented := map[string]bool{}
	for _, m := range re.FindAllStringSubmatch(string(doc), -1) {
		name := m[1]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			name = strings.TrimSuffix(name, suffix)
		}
		documented[name] = true
	}
	if len(documented) == 0 {
		t.Fatal("OBSERVABILITY.md documents no `fab_*` metrics")
	}

	regSet := map[string]bool{}
	for _, name := range registered {
		regSet[name] = true
		if !documented[name] {
			t.Errorf("metric %s is registered but not documented in OBSERVABILITY.md", name)
		}
	}
	var stale []string
	for name := range documented {
		if !regSet[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("OBSERVABILITY.md documents %s, which no longer exists in the registry", name)
	}
}

// TestDaemonMetricsHandlers drives the HTTP surface against a lockstep
// daemon: JSON by default, Prometheus on Accept, /fabric topology rows.
func TestDaemonMetricsHandlers(t *testing.T) {
	d := newTestDaemon(t, 64)

	rec := httptest.NewRecorder()
	d.handleMetrics(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("default Content-Type = %q", ct)
	}
	var snap snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	if snap.Injected == 0 || snap.Slot == 0 {
		t.Fatalf("no traffic visible in snapshot: %+v", snap)
	}
	if snap.Injected != snap.Delivered+snap.Dropped+snap.Resident {
		t.Fatalf("snapshot books don't close: %+v", snap)
	}

	rec = httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	d.handleMetrics(rec, req)
	body := rec.Body.String()
	for _, want := range []string{"fab_injected_total", "fab_middle_live", "fab_stage_backlog_frames", "fab_latency_slots_bucket"} {
		if !strings.Contains(body, want) {
			t.Errorf("Prometheus exposition missing %s", want)
		}
	}

	rec = httptest.NewRecorder()
	d.handleFabric(rec, httptest.NewRequest(http.MethodGet, "/fabric", nil))
	var fabDoc struct {
		Switches []stageSummary `json:"switches"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &fabDoc); err != nil {
		t.Fatalf("/fabric JSON: %v", err)
	}
	if len(fabDoc.Switches) != 6 { // m + 2r for C(2,2,2)
		t.Fatalf("/fabric lists %d switches, want 6", len(fabDoc.Switches))
	}
}

// TestDaemonEndToEnd runs the real slot loop on its clock with the HTTP
// surface attached, kills a middle switch over the wire, watches traffic
// reroute, revives it and shuts down — the full operational story,
// in-process.
func TestDaemonEndToEnd(t *testing.T) {
	d, err := newDaemon(cf.Config{
		M: 2, K: 2, R: 2,
		Engine: rt.Spec{Seed: 7, FaultPolicy: rt.HoldStranded},
		Select: cf.SelectRoundRobin,
	}, 0.6, true)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", d.handleMetrics)
	mux.HandleFunc("/fabric", d.handleFabric)
	mux.HandleFunc("/fault", d.handleFault)
	mux.HandleFunc("/trace", d.handleTrace)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	stop := make(chan struct{})
	runDone := make(chan error, 1)
	go func() { runDone <- d.run(50*time.Microsecond, 0, stop) }()

	getSnap := func() snapshot {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var s snapshot
		if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
			t.Fatal(err)
		}
		return s
	}
	waitFor := func(what string, cond func(snapshot) bool) snapshot {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if s := getSnap(); cond(s) {
				return s
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s (last: %+v)", what, getSnap())
		return snapshot{}
	}

	waitFor("traffic", func(s snapshot) bool { return s.Delivered > 100 })

	// Kill middle 0 over the wire; routing must shift entirely to 1.
	resp, err := http.Post(ts.URL+"/fault?middle=0&state=down", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var states []middleState
	if err := json.NewDecoder(resp.Body).Decode(&states); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || states[0].Live || !states[1].Live {
		t.Fatalf("kill response: status %d, states %+v", resp.StatusCode, states)
	}
	before := waitFor("degraded state visible", func(s snapshot) bool { return !s.MiddleLive[0] })
	routedBefore := before.Injected
	waitFor("traffic rerouted through middle 1", func(s snapshot) bool {
		return s.Injected > routedBefore+50
	})

	// Revive, then check the trace surface speaks stage-tagged JSONL.
	resp, err = http.Post(ts.URL+"/fault?middle=0&state=up", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitFor("recovery visible", func(s snapshot) bool { return s.MiddleLive[0] })

	resp, err = http.Get(ts.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	stages := map[string]bool{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev stageEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		stages[ev.Stage] = true
	}
	resp.Body.Close()
	for _, want := range []string{"ingress", "middle", "egress"} {
		if !stages[want] {
			t.Errorf("trace has no events from the %s stage (saw %v)", want, stages)
		}
	}

	close(stop)
	if err := <-runDone; err != nil {
		t.Fatalf("run loop: %v", err)
	}

	// The loop has stopped; the books must close exactly.
	st := d.fab.Stats()
	if st.Injected.Value() != st.Delivered.Value()+st.Dropped.Value()+d.fab.Resident() {
		t.Fatalf("final accounting broken: injected %d, delivered %d, dropped %d, resident %d",
			st.Injected.Value(), st.Delivered.Value(), st.Dropped.Value(), d.fab.Resident())
	}
}

// TestDaemonClockHoldsPeriod: the fabric loop runs a slot every period at
// lcffab's default 200 µs, at least 0.8 of the asked rate, with the
// fabric's per-slot conservation audit running in every slot. On a
// time.Ticker it ran near a fifth of that rate, because the netpoller
// rounds a timer wait under 1 ms up to a millisecond. The best of three
// runs counts: a clock that cannot keep the period misses it in every
// run, while a busy host seldom stalls all three.
func TestDaemonClockHoldsPeriod(t *testing.T) {
	const period, slots = 200 * time.Microsecond, 1000
	// A light load keeps a slot's work well under the period, the race
	// detector's cost included, so what is timed is the clock.
	d, err := newDaemon(cf.Config{
		M: 2, K: 2, R: 2,
		Engine: rt.Spec{Seed: 1, FaultPolicy: rt.HoldStranded},
		Select: cf.SelectLeastBacklogged,
	}, 0.1, false)
	if err != nil {
		t.Fatal(err)
	}
	asked, best := 1/period.Seconds(), 0.0
	for try := 1; try <= 3 && best < 0.8*asked; try++ {
		start := time.Now()
		if err := d.run(period, int64(try*slots), nil); err != nil {
			t.Fatal(err)
		}
		rate := slots / time.Since(start).Seconds()
		if got := d.fab.Slot(); got != int64(try*slots) {
			t.Fatalf("ran %d slots, want %d", got, try*slots)
		}
		t.Logf("run %d: %.0f slots/s at %v (asked %.0f)", try, rate, period, asked)
		best = max(best, rate)
	}
	if d.fab.Stats().Injected.Value() == 0 {
		t.Fatal("no traffic went through the fabric")
	}
	if best < 0.8*asked {
		t.Errorf("best of three runs of %d slots: %.0f slots/s, asked %.0f", slots, best, asked)
	}
}

// TestUsageErrorsExitTwo spawns the daemon with each bad flag and checks
// it exits 2 naming the flag. Every row also runs with -slots 1 and no
// HTTP listener, so a daemon that wrongly accepts its flags stops after
// one slot with status 0 instead of serving forever.
func TestUsageErrorsExitTwo(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "lcffab")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building lcffab: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		want string // substring of stderr
	}{
		{[]string{"-trace", "-trace-ring", "0"}, "flag provided but not defined: -trace-ring"},
		{[]string{"-trace-ring", "8"}, "flag provided but not defined: -trace-ring"},
		{[]string{"-fault-policy", "x"}, "-fault-policy must be hold or drop"},
		{[]string{"-select", "x"}, "-select"},
		{[]string{"-select", "round-robin"}, `unknown middle selection "round-robin"`},
		{[]string{"-select", "least-backlogged"}, `unknown middle selection "least-backlogged"`},
		{[]string{"-slot", "0"}, "-slot must be positive"},
		{[]string{"-load", "2"}, "-load must be in [0,1]"},
		{[]string{"-sched", "nope"}, `unknown scheduler "nope"`},
		{[]string{"-voqcap", "-1"}, "negative capacity"},
		{[]string{"-iterations", "-1"}, "-iterations must be >= 0"},
		{[]string{"-m", "2"}, "m=2 < k=4"},
	} {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, append(tc.args, "-slots", "1", "-http", "")...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("lcffab %v: %v, want exit status 2", tc.args, err)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("lcffab %v: stderr %q does not mention %q", tc.args, stderr.String(), tc.want)
		}
	}
}
