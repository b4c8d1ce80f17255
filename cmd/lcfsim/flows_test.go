package main

import "testing"

func flowStudyCfg() flowStudy {
	return flowStudy{
		study: study{
			N: 8, Load: 0.7, Warmup: 500, Measure: 1500,
			Scheduler: "lcf_central_rr", Seed: 42,
		},
		Flows: 8192, Skew: 0.8, Policies: []string{"hash", "least", "po2"},
	}
}

// TestStudyPo2BeatsHash pins the E31 headline on a deterministic,
// test-sized run: under skewed flow traffic in a stable regime, po2
// steering yields measurably lower max/mean per-input backlog imbalance
// and a lower peak single-input backlog than consistent hashing, at the
// same delivered throughput.
func TestStudyPo2BeatsHash(t *testing.T) {
	rows, err := runFlowStudy(flowStudyCfg())
	if err != nil {
		t.Fatal(err)
	}
	byPolicy := map[string]flowRow{}
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

// TestFlowStudyDeterminism pins that the whole sweep is replayable: same
// seed, same rows, bit for bit.
func TestFlowStudyDeterminism(t *testing.T) {
	a, err := runFlowStudy(flowStudyCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := runFlowStudy(flowStudyCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d diverged across equal seeds:\n a = %+v\n b = %+v", i, a[i], b[i])
		}
	}
}
