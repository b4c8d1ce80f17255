package main

import (
	"errors"
	"fmt"
	"sort"

	lcf "repro"
	"repro/internal/pifo"
	"repro/internal/rng"
	rt "repro/internal/runtime"
	"repro/internal/traffic"
)

// The class study's fixed setup: three classes — rt (priority 0, weight
// 4, 16-slot SLO), std and bulk — offered in a 2:3:5 mix, and the fault
// window of the faulted replay: outputs 0..faultPorts-1 fail at slot
// faultStart and recover faultLen slots later. Admissions to a down
// output are refused at the door; frames already queued strand (the
// study holds them — HoldStranded) and drain after recovery.
const (
	classSpec  = "rt:0:4:16,std:1:2:64,bulk:2:1"
	classMix   = "2,3,5"
	faultStart = 2000
	faultLen   = 1200
	faultPorts = 4
)

// classStudy parameterizes one E32 sweep: the live lockstep engine under
// a deterministic three-class trace of Measure slots, with each PIFO rank
// function replaying the identical trace so the columns differ only in
// how the class tier orders frames.
type classStudy struct {
	study
	Ranks []string
}

// classRow is one class's measured line within a run.
type classRow struct {
	Class      string
	Delivered  int64
	P50, P99   int64 // exact latency quantiles in slots, over all deliveries
	Violations int64
}

// classRun is one (rank, faulted?) replay of the shared trace.
type classRun struct {
	Rank          string
	Faulted       bool
	Classes       []classRow
	Rejected      int64 // admissions refused while their link was down
	Backpressured int64
}

// buildTrace generates the shared arrival and class tables once:
// Bernoulli-uniform arrivals recorded into a dense table (replayed via
// traffic.NewTrace), and a class label per arrival drawn from the mix
// on an independent stream. Every rank replays these bit-identically.
func buildTrace(s classStudy) (arrivals, classTab [][]int, err error) {
	ws, err := traffic.ParseWeights(classMix)
	if err != nil {
		return nil, nil, err
	}
	mix, err := traffic.NewWeighted(ws)
	if err != nil {
		return nil, nil, err
	}
	gen := traffic.NewBernoulli(s.N, s.Load, traffic.NewUniform(s.N), s.Seed^0xE32)
	classRng := rng.NewPCG32(s.Seed, 0xC1A55)
	arrivals = make([][]int, s.Measure)
	classTab = make([][]int, s.Measure)
	for t := int64(0); t < s.Measure; t++ {
		arow := make([]int, s.N)
		crow := make([]int, s.N)
		for i := 0; i < s.N; i++ {
			arow[i] = gen.Next(i)
			if arow[i] != traffic.NoPacket {
				crow[i] = mix.Pick(classRng.Float64())
			}
		}
		gen.Advance()
		arrivals[t] = arow
		classTab[t] = crow
	}
	return arrivals, classTab, nil
}

// runRank replays the shared trace against one rank function, with or
// without the fault window, and reports exact per-class latency
// quantiles over every delivered frame (including the drain past the
// trace end — the late frames are the ones the study is about).
func runRank(s classStudy, rank string, faulted bool, arrivals, classTab [][]int) (classRun, error) {
	r := classRun{Rank: rank, Faulted: faulted}
	classes, err := pifo.ParseClasses(classSpec)
	if err != nil {
		return r, err
	}
	e, err := s.engine(rt.Spec{
		FaultPolicy: rt.HoldStranded,
		Classes:     classSpec,
		Rank:        rank,
	})
	if err != nil {
		return r, err
	}
	defer e.Close()

	gen := traffic.NewTrace(s.N, arrivals)
	st := e.Stats()
	lat := make([][]int64, len(classes))
	var seq uint64
	// The run continues past the trace until the switch is empty, so
	// stranded frames' latencies are measured, not lost. The cap only
	// guards against a wedged engine; a healthy drain is much shorter.
	maxSlots := 2*s.Measure + faultLen
	for slot := int64(0); slot < maxSlots; slot++ {
		if faulted {
			if slot == faultStart {
				for p := 0; p < faultPorts; p++ {
					if err := e.FailOutput(p); err != nil {
						return r, err
					}
				}
			}
			if slot == faultStart+faultLen {
				for p := 0; p < faultPorts; p++ {
					if err := e.RecoverOutput(p); err != nil {
						return r, err
					}
				}
			}
		}
		if slot < s.Measure {
			for i := 0; i < s.N; i++ {
				dst := gen.Next(i)
				if dst == traffic.NoPacket {
					continue
				}
				seq++
				req := rt.Request{Src: i, Dst: dst, Seq: seq, Class: classTab[slot][i], Classed: true}
				switch _, aerr := e.Offer(req); {
				case aerr == nil:
				case errors.Is(aerr, rt.ErrBackpressure):
					r.Backpressured++
				case errors.Is(aerr, rt.ErrPortDown) && faulted:
					r.Rejected++
				default:
					return r, fmt.Errorf("rank %s: slot %d: Offer: %v", rank, slot, aerr)
				}
			}
			gen.Advance()
		}
		tick(e, func(f rt.Frame) { lat[f.Class] = append(lat[f.Class], f.Departed-f.Admitted) })
		if slot >= s.Measure && st.Backlog.Value() == 0 {
			break
		}
	}
	if st.Backlog.Value() != 0 {
		return r, fmt.Errorf("rank %s: %d frames still resident after the drain cap", rank, st.Backlog.Value())
	}

	r.Classes = make([]classRow, len(classes))
	for c, cl := range classes {
		sort.Slice(lat[c], func(a, b int) bool { return lat[c][a] < lat[c][b] })
		r.Classes[c] = classRow{
			Class:      cl.Name,
			Delivered:  int64(len(lat[c])),
			P50:        quantile(lat[c], 0.50),
			P99:        quantile(lat[c], 0.99),
			Violations: e.ClassViolations(c),
		}
	}
	return r, nil
}

// quantile returns the exact q-quantile of sorted samples (0 when empty).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// runClassStudy sweeps every requested rank over the same trace,
// fault-free and faulted.
func runClassStudy(s classStudy) ([]classRun, error) {
	arrivals, classTab, err := buildTrace(s)
	if err != nil {
		return nil, err
	}
	runs := make([]classRun, 0, 2*len(s.Ranks))
	for _, rank := range s.Ranks {
		for _, faulted := range []bool{false, true} {
			r, err := runRank(s, rank, faulted, arrivals, classTab)
			if err != nil {
				return nil, err
			}
			runs = append(runs, r)
		}
	}
	return runs, nil
}

// runClasses is -figure classes: EXPERIMENTS.md E32. Per rank ×
// {fault-free, faulted} it reports, per class, delivered frames, exact
// p50/p99 delivery latency in slots, and SLO violations. The headline:
// under deadline ranking the real-time class rides through the fault
// window — its PIFO residency is near zero, so the fault strands almost
// no rt frames and the post-recovery backlog drains around them — while
// under fifo ranking rt frames queue behind bulk in arrival order and
// absorb the full recovery transient.
func runClasses(cfg lcf.SweepConfig, o options) {
	s := classStudy{study: studyOf(cfg, 0.92), Ranks: o.ranks}
	if s.N <= faultPorts {
		usage("-n must exceed the %d outputs the fault window fails (got %d)", faultPorts, s.N)
	}
	classes, err := pifo.ParseClasses(classSpec)
	if err != nil {
		fatal("%v", err)
	}
	for _, rk := range s.Ranks {
		if _, err := pifo.NewRanker(rk, classes); err != nil {
			usage("-ranks: %v", err)
		}
	}
	runs, err := runClassStudy(s)
	if err != nil {
		fatal("%v", err)
	}
	if o.csv {
		fmt.Println("rank,faulted,class,delivered,p50,p99,slo_violations")
		for _, r := range runs {
			for _, c := range r.Classes {
				fmt.Printf("%s,%t,%s,%d,%d,%d,%d\n", r.Rank, r.Faulted, c.Class, c.Delivered, c.P50, c.P99, c.Violations)
			}
		}
		return
	}
	fmt.Printf("E32 — service classes: per-class latency under a link-fault window, per rank\n")
	fmt.Printf("(n=%d, classes %s, mix %s, load %.2f, %d trace slots, outputs 0-%d down slots %d-%d, scheduler %s, seed %d)\n\n",
		s.N, classSpec, classMix, s.Load, s.Measure, faultPorts-1,
		faultStart, faultStart+faultLen, s.Scheduler, s.Seed)
	fmt.Printf("%-10s %-7s %-6s %10s %8s %8s %10s\n",
		"rank", "faults", "class", "delivered", "p50", "p99", "violations")
	for _, r := range runs {
		window := "none"
		if r.Faulted {
			window = "window"
		}
		for _, c := range r.Classes {
			fmt.Printf("%-10s %-7s %-6s %10d %8d %8d %10d\n",
				r.Rank, window, c.Class, c.Delivered, c.P50, c.P99, c.Violations)
		}
	}
}
