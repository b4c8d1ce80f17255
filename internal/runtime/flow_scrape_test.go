package runtime

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/flowtable"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sched/registry"
)

// TestScrapeFoldsFlowTableOnce: a Prometheus scrape of an engine with the
// flow tier folds the steering table once, so it takes each shard lock
// once — where the seven families that read the table used to fold it
// once each — and every family reads that one fold. Scrapes racing each
// other and Offer still fold once each (the fold is shared under the
// registry's scrape lock; -race checks the sharing).
func TestScrapeFoldsFlowTableOnce(t *testing.T) {
	folds := 0
	defer func(f func(*flowtable.Table) flowtable.Stats) { flowStats = f }(flowStats)
	flowStats = func(tbl *flowtable.Table) flowtable.Stats {
		folds++
		return tbl.Stats()
	}

	const n, flows = 4, 10
	s, err := registry.New("lcf_central_rr", n, sched.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{N: n, Scheduler: s, Flows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < flows; f++ {
		if _, err := e.Offer(Request{Dst: f % n, Flow: uint64(f), Steered: true}); err != nil {
			t.Fatal(err)
		}
	}
	r := obs.NewRegistry()
	e.Register(r)
	shards, _ := e.flows.Caps()
	st := e.flows.Stats()

	for scrape := 1; scrape <= 3; scrape++ {
		var out bytes.Buffer
		if err := r.WritePrometheus(&out); err != nil {
			t.Fatal(err)
		}
		if folds != scrape {
			t.Fatalf("scrape %d: %d folds of the flow table so far (%d shard-lock acquisitions), want one per scrape (%d each)",
				scrape, folds, folds*shards, shards)
		}
		for _, line := range []string{
			fmt.Sprintf("lcf_flow_resident %d\n", flows),
			fmt.Sprintf("lcf_flow_steered_total %d\n", flows),
			fmt.Sprintf("lcf_flow_admitted_total %d\n", flows),
			fmt.Sprintf("lcf_flow_buckets %d\n", st.Buckets),
			"lcf_flow_evicted_total 0\n",
			"lcf_flow_rebalanced_total 0\n",
			"lcf_flow_rejected_total 0\n",
		} {
			if !strings.Contains(out.String(), line) {
				t.Errorf("scrape %d lacks %q", scrape, strings.TrimSpace(line))
			}
		}
	}

	const scrapers, each = 4, 25
	var wg sync.WaitGroup
	for k := 0; k < scrapers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 0; s < each; s++ {
				if err := r.WritePrometheus(io.Discard); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	for f := flows; f < 2*flows; f++ {
		if _, err := e.Offer(Request{Dst: f % n, Flow: uint64(f), Steered: true}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if want := 3 + scrapers*each; folds != want {
		t.Fatalf("%d concurrent scrapes after 3: %d folds, want %d", scrapers*each, folds, want)
	}
}
