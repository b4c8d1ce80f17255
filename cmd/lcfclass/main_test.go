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
		N: 8, Slots: 2_500, Load: 0.96,
		Classes:   "rt:0:4:16,std:1:2:64,bulk:2:1",
		Mix:       []float64{2, 3, 5},
		Ranks:     []string{"fifo", "deadline"},
		Scheduler: "lcf_central_rr", Seed: 42,
		FaultStart: 1_200, FaultLen: 600, FaultPorts: 4,
	}
}

func classOf(t *testing.T, r run, name string) classRow {
	t.Helper()
	for _, c := range r.Classes {
		if c.Class == name {
			return c
		}
	}
	t.Fatalf("class %s missing from run %+v", name, r)
	return classRow{}
}

// TestStudyDeadlineHoldsRealtimeP99 pins the E32 headline on a
// deterministic, test-sized run: with half the outputs failed for 600
// mid-trace slots, deadline ranking keeps the real-time class's p99
// delivery latency within 2× of its own fault-free run — the fault's
// stranded backlog drains around rt, whose PIFO residency the ranking
// keeps near zero — while the fifo baseline leaves rt queued in arrival
// order at more than 2× the protected figure, and bulk absorbs the
// degradation (its p99 under deadline is the worst in the table).
func TestStudyDeadlineHoldsRealtimeP99(t *testing.T) {
	runs, err := runStudy(studyCfg())
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]run{}
	for _, r := range runs {
		key := r.Rank
		if r.Faulted {
			key += "+fault"
		}
		byKey[key] = r
	}
	dlClean := classOf(t, byKey["deadline"], "rt")
	dlFault := classOf(t, byKey["deadline+fault"], "rt")
	fifoFault := classOf(t, byKey["fifo+fault"], "rt")

	// The protection claim: rt p99 rides through the fault window.
	if dlFault.P99 > 2*dlClean.P99 {
		t.Errorf("deadline rt p99 %d blew past 2x its fault-free %d", dlFault.P99, dlClean.P99)
	}
	// The baseline does not protect: fifo's faulted rt p99 is beyond
	// twice what deadline ranking delivers under the same faults.
	if fifoFault.P99 <= 2*dlFault.P99 {
		t.Errorf("fifo rt p99 %d not beyond 2x deadline's %d — baseline unexpectedly protective", fifoFault.P99, dlFault.P99)
	}
	// Someone pays: bulk under deadline absorbs the latency rt sheds.
	dlBulk := classOf(t, byKey["deadline+fault"], "bulk")
	fifoBulk := classOf(t, byKey["fifo+fault"], "bulk")
	if dlBulk.P99 <= fifoBulk.P99 {
		t.Errorf("deadline bulk p99 %d not above fifo's %d — protection came from nowhere", dlBulk.P99, fifoBulk.P99)
	}
	// And the SLO ledger agrees with the latency table.
	if dlFault.Violations >= fifoFault.Violations {
		t.Errorf("deadline rt violations %d not below fifo's %d", dlFault.Violations, fifoFault.Violations)
	}
	// Identical trace: delivered counts per class match across ranks.
	if dlFault.Delivered != fifoFault.Delivered {
		t.Errorf("ranks saw different traffic: deadline delivered %d, fifo %d", dlFault.Delivered, fifoFault.Delivered)
	}
}

// TestStudyDeterminism pins that the whole sweep is replayable: same
// seed, same runs.
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
		if a[i].Rank != b[i].Rank || a[i].Rejected != b[i].Rejected || len(a[i].Classes) != len(b[i].Classes) {
			t.Fatalf("run %d diverged across equal seeds:\n a = %+v\n b = %+v", i, a[i], b[i])
		}
		for c := range a[i].Classes {
			if a[i].Classes[c] != b[i].Classes[c] {
				t.Fatalf("run %d class %d diverged:\n a = %+v\n b = %+v", i, c, a[i].Classes[c], b[i].Classes[c])
			}
		}
	}
}

// TestUsageErrorsExitTwo pins the exit-code contract shared by every
// command in this repo: invalid flags exit 2, not 1.
func TestUsageErrorsExitTwo(t *testing.T) {
	bin := buildBin(t)
	for _, args := range [][]string{
		{"-n", "0"},
		{"-slots", "0"},
		{"-load", "1.5"},
		{"-classes", "bad:x"},
		{"-mix", "1,2"},
		{"-ranks", "nonexistent"},
		{"-fault-ports", "8"},
		{"-classqcap", "-1"},
	} {
		err := exec.Command(bin, args...).Run()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("lcfclass %v: %v, want exit status 2", args, err)
		}
	}
}

func buildBin(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "lcfclass")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building lcfclass: %v\n%s", err, out)
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
		{"classes.txt", []string{"-ranks", "fifo,strict,wfq,deadline", "-load", "0.96", "-slots", "4000", "-fault-start", "2000", "-fault-len", "1200", "-fault-ports", "4"}},
	} {
		want, err := os.ReadFile(filepath.Join("..", "..", "results", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		got, err := exec.Command(bin, tc.args...).Output()
		if err != nil {
			t.Fatalf("lcfclass %v: %v", tc.args, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("lcfclass %v no longer reproduces results/%s:\n--- got\n%s--- want\n%s", tc.args, tc.file, got, want)
		}
	}
}
