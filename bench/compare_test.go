package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// pairsOf builds ten (parent, change) pairs of one workload from the
// per-pair values of each metric.
func pairsOf(workload string, trace int, parent, change map[string][]float64) [][2][]record {
	var pairs [][2][]record
	for k := 0; k < 10; k++ {
		side := func(vals map[string][]float64) []record {
			r := record{Workload: workload, Seed: uint64(k), Trace: trace}
			r.Correct, r.Attempted = true, 1
			r.Metrics = map[string]metricValue{}
			for name, v := range vals {
				r.Metrics[name] = metricValue{Value: v[k]}
			}
			return []record{r}
		}
		pairs = append(pairs, [2][]record{side(parent), side(change)})
	}
	return pairs
}

func series(base, step float64) []float64 {
	v := make([]float64, 10)
	for k := range v {
		v[k] = base + step*float64(k%5)
	}
	return v
}

func verdictOf(t *testing.T, rows []*row, metric string) string {
	t.Helper()
	for _, r := range rows {
		if r.metric == metric {
			return r.verdict
		}
	}
	t.Fatalf("no row for %s", metric)
	return ""
}

// boundOf is a metric's committed bound; the cases below are sized from
// it so they hold whatever the bounds are set to.
func boundOf(t *testing.T, metric string) float64 {
	t.Helper()
	r, ok := ruleFor(metric, "engine_voq_n64")
	if !ok || r.bound <= 0 {
		t.Fatalf("no bound for %s", metric)
	}
	return r.bound
}

func TestCompareVerdicts(t *testing.T) {
	p99Step := 5000 * boundOf(t, "rtt_p99_us") * 0.6 // interquartile range 1.5 bounds wide
	parent := map[string][]float64{
		"frames_per_s":     series(1000, 2),       // higher is better
		"rtt_p50_us":       series(500, 1),        // lower is better
		"rtt_p99_us":       series(5000, p99Step), // noisy: spread over the bound
		"mem_mb":           series(20, 0.01),
		"delay_mean_slots": series(6.1, 0.001), // exact on an engine workload
	}
	change := map[string][]float64{
		"frames_per_s":     series(1100, 2),                                        // better in every pair, far beyond the noise: a gain
		"rtt_p50_us":       series(500*(1+1.5*boundOf(t, "rtt_p50_us")), 1),        // worse by one and a half bounds
		"rtt_p99_us":       series(5000*(1+0.1*boundOf(t, "rtt_p99_us")), p99Step), // inside its own noise
		"mem_mb":           series(20.05, 0.01),
		"delay_mean_slots": series(6.1, 0.001),
	}
	rows := compareRecords(pairsOf("engine_voq_n64", 0, parent, change))
	want := map[string]string{
		"frames_per_s":     verdictGain,
		"rtt_p50_us":       verdictRegression,
		"rtt_p99_us":       verdictUnresolved,
		"mem_mb":           verdictUnchanged,
		"delay_mean_slots": verdictSame,
	}
	for metric, v := range want {
		if got := verdictOf(t, rows, metric); got != v {
			t.Errorf("%s: verdict %q, want %q", metric, got, v)
		}
	}

	// An exact metric that moves is reported even inside its bound, and
	// is a regression beyond it.
	change["delay_mean_slots"] = series(6.1001, 0.001)
	if got := verdictOf(t, compareRecords(pairsOf("engine_voq_n64", 0, parent, change)), "delay_mean_slots"); got != verdictChanged {
		t.Errorf("moved exact metric: verdict %q, want %q", got, verdictChanged)
	}
	change["delay_mean_slots"] = series(6.1*(1+1.5*boundOf(t, "delay_mean_slots")), 0.001)
	if got := verdictOf(t, compareRecords(pairsOf("engine_voq_n64", 0, parent, change)), "delay_mean_slots"); got != verdictRegression {
		t.Errorf("exact metric beyond its bound: verdict %q, want %q", got, verdictRegression)
	}
	// On the wire the same metric is a host time and is judged by spread.
	if got := verdictOf(t, compareRecords(pairsOf("wire_plain_w64", 0, parent, change)), "delay_mean_slots"); got != verdictRegression {
		t.Errorf("wire delay beyond its bound: verdict %q, want %q", got, verdictRegression)
	}
}

// A gain needs nine wins in ten: eight do not make one.
func TestCompareNeedsNineTenths(t *testing.T) {
	parent := map[string][]float64{"frames_per_s": series(1000, 1)}
	change := map[string][]float64{"frames_per_s": series(1050, 1)}
	change["frames_per_s"][0], change["frames_per_s"][1] = 990, 990
	rows := compareRecords(pairsOf("sim_fig12a_n16", 0, parent, change))
	if r := rows[0]; r.wins != 8 || r.verdict == verdictGain {
		t.Errorf("wins %d, verdict %q: eight wins in ten must not be a gain", r.wins, r.verdict)
	}
}

// Per-layer counts marked exact are compared for equality; per-layer
// timings have no bound and never regress.
func TestComparePerLayer(t *testing.T) {
	parent := map[string][]float64{"runtime.admitted": series(5000, 0), "runtime.tick_ns": series(30000, 100)}
	change := map[string][]float64{"runtime.admitted": series(5001, 0), "runtime.tick_ns": series(60000, 100)}
	rows := compareRecords(pairsOf("engine_voq_n64", 1, parent, change))
	if got := verdictOf(t, rows, "runtime.admitted"); got != verdictChanged {
		t.Errorf("runtime.admitted: %q, want %q", got, verdictChanged)
	}
	if got := verdictOf(t, rows, "runtime.tick_ns"); got != verdictUnchanged {
		t.Errorf("runtime.tick_ns: %q, want %q (no bound, no gain: it got worse)", got, verdictUnchanged)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, fps float64) string {
		r := record{Workload: "wire_plain_w64", Seed: 1}
		r.Correct, r.Attempted = true, 10
		r.Metrics = map[string]metricValue{"frames_per_s": {fps, "1/s"}}
		raw, _ := json.Marshal(r)
		path := filepath.Join(dir, name)
		if err := appendLine(path, raw); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent, slower := write("parent.json", 100000), write("change.json", 100000*(1-1.5*boundOf(t, "frames_per_s")))
	var out bytes.Buffer
	regressed, err := compareFiles(&out, []string{parent, slower})
	if err != nil || !regressed {
		t.Fatalf("regressed %v, err %v; a fall of one and a half bounds must regress\n%s", regressed, err, out.String())
	}
	if !strings.Contains(out.String(), verdictRegression) || !strings.Contains(out.String(), "wire_plain_w64") {
		t.Errorf("table lacks the row:\n%s", out.String())
	}
	if regressed, err := compareFiles(&out, []string{parent, parent}); err != nil || regressed {
		t.Errorf("a file against itself: regressed %v, err %v", regressed, err)
	}
	if _, err := compareFiles(&out, []string{parent}); err == nil {
		t.Error("an odd number of files must be refused")
	}
	if err := os.WriteFile(filepath.Join(dir, "bad.json"), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := compareFiles(&out, []string{parent, filepath.Join(dir, "bad.json")}); err == nil {
		t.Error("a record without a workload must be refused")
	}
}
