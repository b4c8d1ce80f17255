package closfabric_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	cf "repro/internal/closfabric"
	rt "repro/internal/runtime"
	"repro/internal/traffic"
)

// selectRun is one fabric run's outcome in the E42 study. Delays are in
// fabric slots, admission to external delivery, counting the delivery
// slot (the fab_latency_slots convention, so three hops read at least 3).
type selectRun struct {
	throughput float64 // frames delivered per port per slot
	meanDelay  float64
	p99Delay   float64 // nearest rank
	reordered  float64 // share of deliveries that overtook a later-admitted frame of their pair
}

// runSelect drives one lockstep C(m,k,r) fabric under HoldStranded for
// slots slots of the named lcfload pattern and measures the frames
// delivered before the last slot; nothing is drained.
func runSelect(m, k, r int, sel cf.MiddleSelect, pattern string, load float64, slots int, seed uint64) (selectRun, error) {
	var delays []int64
	f, err := cf.New(cf.Config{
		M: m, K: k, R: r, Select: sel,
		Engine:    rt.Spec{Seed: seed},
		OnDeliver: func(d cf.Delivery) { delays = append(delays, d.DeliveredSlot-d.Admitted+1) },
	})
	if err != nil {
		return selectRun{}, err
	}
	n := f.N()
	gen, err := traffic.NewPattern(pattern, n, load, traffic.Params{}, seed)
	if err != nil {
		return selectRun{}, err
	}
	for s := 0; s < slots; s++ {
		for in := 0; in < n; in++ {
			dst := gen.Next(in)
			if dst == traffic.NoPacket {
				continue
			}
			// A full ingress VOQ refuses the frame, as it would a host's.
			if err := f.Admit(in, dst, 0, 0); err != nil && !errors.Is(err, cf.ErrBackpressure) {
				return selectRun{}, err
			}
		}
		gen.Advance()
		if err := f.Tick(); err != nil {
			return selectRun{}, err
		}
	}
	if len(delays) == 0 {
		return selectRun{}, fmt.Errorf("C(%d,%d,%d) %s %.2f seed %d delivered nothing", m, k, r, pattern, load, seed)
	}
	var sum int64
	for _, d := range delays {
		sum += d
	}
	slices.Sort(delays)
	return selectRun{
		throughput: float64(len(delays)) / float64(n*slots),
		meanDelay:  float64(sum) / float64(len(delays)),
		p99Delay:   float64(delays[int(math.Ceil(0.99*float64(len(delays))))-1]),
		reordered:  float64(f.Stats().Reordered.Value()) / float64(len(delays)),
	}, nil
}

// TestMiddleSelectStudy is EXPERIMENTS.md E42: rr against backlog middle
// selection on the lockstep fabric at C(4,4,4), C(4,2,4) and C(8,8,8),
// under lcfload's five patterns at loads 0.5, 0.8 and 0.95, seeds 1–10,
// 4 000 slots a run. Per cell it prints each selector's median over the
// seeds of throughput, mean and p99 delay and reorder share, and the
// number of seeds on which rr beats backlog on each. The fabric is
// lockstep and seeded, so the table must equal
// results/e42_middle_select.txt byte for byte. About 900 runs: it runs
// only with LCF_RECORDED=1.
func TestMiddleSelectStudy(t *testing.T) {
	if os.Getenv("LCF_RECORDED") != "1" {
		t.Skip("the E42 study runs with LCF_RECORDED=1")
	}
	const slots, seeds = 4000, 10
	topologies := [][3]int{{4, 4, 4}, {4, 2, 4}, {8, 8, 8}}
	patterns := []string{"uniform", "hotspot", "diagonal", "logdiagonal", "bursty"}
	loads := []float64{0.5, 0.8, 0.95}
	selects := []cf.MiddleSelect{cf.SelectRoundRobin, cf.SelectLeastBacklogged}

	// runs[cell][sel][seed-1], cells in table order.
	type job struct{ cell, sel, seed int }
	ncell := len(topologies) * len(patterns) * len(loads)
	runs := make([][2][seeds]selectRun, ncell)
	jobs := make(chan job)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for w := 0; w < goruntime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				tp := topologies[j.cell/(len(patterns)*len(loads))]
				pattern := patterns[j.cell/len(loads)%len(patterns)]
				load := loads[j.cell%len(loads)]
				res, err := runSelect(tp[0], tp[1], tp[2], selects[j.sel], pattern, load, slots, uint64(j.seed+1))
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				runs[j.cell][j.sel][j.seed] = res
				mu.Unlock()
			}
		}()
	}
	for c := 0; c < ncell; c++ {
		for s := 0; s < seeds; s++ {
			for sel := range selects {
				jobs <- job{c, sel, s}
			}
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}

	type metric struct {
		name   string
		format string
		read   func(selectRun) float64
		higher bool // higher is better
	}
	metrics := []metric{
		{"throughput", "%6.3f", func(r selectRun) float64 { return r.throughput }, true},
		{"mean delay", "%6.1f", func(r selectRun) float64 { return r.meanDelay }, false},
		{"p99 delay", "%6.1f", func(r selectRun) float64 { return r.p99Delay }, false},
		{"reordered %", "%6.1f", func(r selectRun) float64 { return 100 * r.reordered }, false},
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "E42 — middle-stage selection on the lockstep Clos fabric: rr vs backlog\n")
	fmt.Fprintf(&b, "(lcf_central_rr engines, VOQCap 256, OutCap 256, HoldStranded, no faults; %d slots a run, seeds 1-%d;\n", slots, seeds)
	fmt.Fprintf(&b, " rr and backlg are medians over the seeds; win = seeds on which rr beats backlog, of %d;\n", seeds)
	fmt.Fprintf(&b, " throughput = frames delivered per port per slot; delays in slots, admission to delivery;\n")
	fmt.Fprintf(&b, " reordered = share of deliveries that left after a later-admitted frame of their (src, dst) pair)\n\n")
	groups := fmt.Sprintf("%25s", "")
	for _, m := range metrics {
		groups += fmt.Sprintf(" | %-17s", m.name)
	}
	fmt.Fprintf(&b, "%s\n%-8s %-11s %4s", strings.TrimRight(groups, " "), "fabric", "pattern", "load")
	for range metrics {
		fmt.Fprintf(&b, " | %6s %6s %3s", "rr", "backlg", "win")
	}
	b.WriteString("\n")
	median := func(v []float64) float64 {
		s := slices.Clone(v)
		slices.Sort(s)
		return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
	}
	for c := 0; c < ncell; c++ {
		tp := topologies[c/(len(patterns)*len(loads))]
		fmt.Fprintf(&b, "%-8s %-11s %4.2f", fmt.Sprintf("C(%d,%d,%d)", tp[0], tp[1], tp[2]),
			patterns[c/len(loads)%len(patterns)], loads[c%len(loads)])
		for _, m := range metrics {
			var rr, bl []float64
			wins := 0
			for s := 0; s < seeds; s++ {
				a, z := m.read(runs[c][0][s]), m.read(runs[c][1][s])
				rr, bl = append(rr, a), append(bl, z)
				if (m.higher && a > z) || (!m.higher && a < z) {
					wins++
				}
			}
			fmt.Fprintf(&b, " | "+m.format+" "+m.format+" %3d", median(rr), median(bl), wins)
		}
		b.WriteString("\n")
	}

	// A missing file reads as empty and fails below, so the first run
	// can write it.
	want, _ := os.ReadFile(filepath.Join("..", "..", "results", "e42_middle_select.txt"))
	if !bytes.Equal(b.Bytes(), want) {
		if dir := os.Getenv("LCF_RECORDED_OUT"); dir != "" {
			if err := os.WriteFile(filepath.Join(dir, "e42_middle_select.txt"), b.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Errorf("the study no longer reproduces results/e42_middle_select.txt (set LCF_RECORDED_OUT=<dir> to write the new table there):\n--- got\n%s--- want\n%s", b.Bytes(), want)
	}
}
