package main

import "testing"

// classStudyCfg is the recorded E32 run (results/classes.txt) cut to the
// two ranks the headline compares.
func classStudyCfg() classStudy {
	return classStudy{
		study: study{N: 8, Load: 0.96, Measure: 4000, Scheduler: "lcf_central_rr", Seed: 42},
		Ranks: []string{"fifo", "deadline"},
	}
}

func classOf(t *testing.T, r classRun, name string) classRow {
	t.Helper()
	for _, c := range r.Classes {
		if c.Class == name {
			return c
		}
	}
	t.Fatalf("class %s missing from run %+v", name, r)
	return classRow{}
}

// TestStudyDeadlineHoldsRealtimeP99 pins the E32 headline: with half the
// outputs failed for 1200 mid-trace slots, deadline ranking keeps the
// real-time class's p99 delivery latency within 2× of its own fault-free
// run — the fault's stranded backlog drains around rt, whose PIFO
// residency the ranking keeps near zero — while the fifo baseline leaves
// rt queued in arrival order at more than 2× the protected figure, and
// bulk absorbs the degradation (its p99 under deadline is the worst in
// the table).
func TestStudyDeadlineHoldsRealtimeP99(t *testing.T) {
	runs, err := runClassStudy(classStudyCfg())
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]classRun{}
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

// TestClassStudyDeterminism pins that the whole sweep is replayable: same
// seed, same runs.
func TestClassStudyDeterminism(t *testing.T) {
	a, err := runClassStudy(classStudyCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := runClassStudy(classStudyCfg())
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
