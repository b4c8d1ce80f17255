package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

func studyCfg() studyConfig {
	return studyConfig{
		N: 8, Flows: 8192, Skew: 0.8, Load: 0.7,
		Warmup: 500, Measure: 1500,
		Policies: []string{"hash", "least", "po2"}, Scheduler: "lcf_central_rr",
		Seed: 42, EvictEvery: 64, Idle: 2,
	}
}

// TestStudyPo2BeatsHash pins the E31 headline on a deterministic,
// test-sized run: under skewed flow traffic in a stable regime, po2
// steering yields measurably lower max/mean per-input backlog imbalance
// and a lower peak single-input backlog than consistent hashing, at the
// same delivered throughput.
func TestStudyPo2BeatsHash(t *testing.T) {
	rows, err := runStudy(studyCfg())
	if err != nil {
		t.Fatal(err)
	}
	byPolicy := map[string]row{}
	for _, r := range rows {
		byPolicy[r.Policy] = r
	}
	hash, po2 := byPolicy["hash"], byPolicy["po2"]
	if hash.Policy == "" || po2.Policy == "" {
		t.Fatalf("missing policies in %+v", rows)
	}
	if po2.Imbalance >= hash.Imbalance {
		t.Errorf("po2 imbalance %.3f not below hash's %.3f", po2.Imbalance, hash.Imbalance)
	}
	if po2.MaxBacklog >= hash.MaxBacklog {
		t.Errorf("po2 peak backlog %d not below hash's %d", po2.MaxBacklog, hash.MaxBacklog)
	}
	for _, r := range rows {
		// Stable regime: every policy delivers the offered load, so the
		// imbalance comparison is not confounded by throughput loss.
		if r.Throughput < 0.95*0.7 {
			t.Errorf("%s throughput %.4f collapsed below offered load", r.Policy, r.Throughput)
		}
		if r.Rejected != 0 {
			t.Errorf("%s rejected %d admissions — table sized too small for the study", r.Policy, r.Rejected)
		}
	}
}

// TestStudyDeterminism pins that the whole sweep is replayable: same
// seed, same rows, bit for bit.
func TestStudyDeterminism(t *testing.T) {
	a, err := runStudy(studyCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := runStudy(studyCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d diverged across equal seeds:\n a = %+v\n b = %+v", i, a[i], b[i])
		}
	}
}

// TestUsageErrorsExitTwo pins the exit-code contract shared by every
// command in this repo: invalid flags exit 2, not 1.
func TestUsageErrorsExitTwo(t *testing.T) {
	bin := buildBin(t)
	for _, args := range [][]string{
		{"-n", "0"},
		{"-flows", "0"},
		{"-skew", "-1"},
		{"-load", "1.5"},
		{"-measure", "0"},
		{"-policies", "nonexistent"},
		{"-evict-every", "-1"},
	} {
		err := exec.Command(bin, args...).Run()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("lcfflow %v: %v, want exit status 2", args, err)
		}
	}
}

func buildBin(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "lcfflow")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building lcfflow: %v\n%s", err, out)
	}
	return bin
}

// TestRecordedResults reruns the parameter sets recorded in
// results/README.md and compares stdout byte for byte with the committed
// files: the study is a golden of the engine, the tier it measures and
// every RNG stream it draws from, so a refactor that shifts any of them
// fails here and not at the next hand regeneration.
func TestRecordedResults(t *testing.T) {
	bin := buildBin(t)
	for _, tc := range []struct {
		file string
		args []string
	}{
		{"flows.txt", []string{"-seed", "42"}},
		{"flows_hot.txt", []string{"-n", "8", "-flows", "2048", "-skew", "1.2", "-load", "0.9", "-warmup", "500", "-measure", "2000", "-seed", "42"}},
	} {
		want, err := os.ReadFile(filepath.Join("..", "..", "results", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		got, err := exec.Command(bin, tc.args...).Output()
		if err != nil {
			t.Fatalf("lcfflow %v: %v", tc.args, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("lcfflow %v no longer reproduces results/%s:\n--- got\n%s--- want\n%s", tc.args, tc.file, got, want)
		}
	}
}
