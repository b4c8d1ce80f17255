// Command lcfclass runs the service-class study (EXPERIMENTS.md E32):
// the live lockstep engine under a deterministic three-class traffic
// trace with a link-fault window in the middle, with each PIFO rank
// function driven through the identical trace so the columns differ
// only in how the class tier orders frames. Per rank × {fault-free,
// faulted} it reports, per class, delivered frames, exact p50/p99
// delivery latency in slots, and SLO violations.
//
// The headline E32 pins: under deadline ranking the real-time class
// rides through the fault window — its PIFO residency is near zero
// (urgent frames overtake everything), so the fault strands almost no
// rt frames and the post-recovery backlog drains around them — while
// under fifo ranking rt frames queue behind bulk in arrival order and
// absorb the full recovery transient.
//
// Usage:
//
//	lcfclass -seed 42
//	lcfclass -n 8 -load 0.92 -slots 6000 -ranks fifo,deadline -csv
//
// All runs are deterministic for a given -seed: the arrival trace and
// class labels are generated once (internal/traffic trace replay) and
// every rank replays the same tables.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/pifo"
	"repro/internal/rng"
	rt "repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/sched/registry"
	"repro/internal/traffic"
)

// studyConfig parameterizes one E32 sweep.
type studyConfig struct {
	N         int
	Slots     int64 // trace length; the run drains past it
	Load      float64
	Classes   string // pifo.ParseClasses spec
	Mix       []float64
	Ranks     []string
	Scheduler string
	Seed      uint64
	ClassQCap int
	// The fault window: outputs 0..FaultPorts-1 fail at FaultStart and
	// recover FaultLen slots later. Admissions to a down output are
	// rejected at the door; frames already queued strand (the study
	// holds them — HoldStranded) and drain after recovery.
	FaultStart, FaultLen int64
	FaultPorts           int
}

// classRow is one class's measured line within a run.
type classRow struct {
	Class      string
	Delivered  int64
	P50, P99   int64 // exact latency quantiles in slots, over all deliveries
	Violations int64
}

// run is one (rank, faulted?) replay of the shared trace.
type run struct {
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
func buildTrace(cfg studyConfig) (arrivals, classTab [][]int, err error) {
	mix, err := traffic.NewWeighted(cfg.Mix)
	if err != nil {
		return nil, nil, err
	}
	gen := traffic.NewBernoulli(cfg.N, cfg.Load, traffic.NewUniform(cfg.N), cfg.Seed^0xE32)
	classRng := rng.NewPCG32(cfg.Seed, 0xC1A55)
	arrivals = make([][]int, cfg.Slots)
	classTab = make([][]int, cfg.Slots)
	for t := int64(0); t < cfg.Slots; t++ {
		arow := make([]int, cfg.N)
		crow := make([]int, cfg.N)
		for i := 0; i < cfg.N; i++ {
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
func runRank(cfg studyConfig, rank string, faulted bool, arrivals, classTab [][]int) (run, error) {
	r := run{Rank: rank, Faulted: faulted}
	classes, err := pifo.ParseClasses(cfg.Classes)
	if err != nil {
		return r, err
	}
	sch, err := registry.New(cfg.Scheduler, cfg.N, sched.Options{Iterations: 4, Seed: cfg.Seed})
	if err != nil {
		return r, err
	}
	e, err := rt.New(rt.Config{
		N:           cfg.N,
		Scheduler:   sch,
		FaultPolicy: rt.HoldStranded,
		Classes:     classes,
		Rank:        rank,
		ClassQCap:   cfg.ClassQCap,
	})
	if err != nil {
		return r, err
	}
	defer e.Close()

	gen := traffic.NewTrace(cfg.N, arrivals)
	st := e.Stats()
	lat := make([][]int64, len(classes))
	var seq uint64
	// The run continues past the trace until the switch is empty, so
	// stranded frames' latencies are measured, not lost. The cap only
	// guards against a wedged engine; a healthy drain is much shorter.
	maxSlots := 2*cfg.Slots + cfg.FaultLen
	for slot := int64(0); slot < maxSlots; slot++ {
		if faulted {
			if slot == cfg.FaultStart {
				for p := 0; p < cfg.FaultPorts; p++ {
					if err := e.FailOutput(p); err != nil {
						return r, err
					}
				}
			}
			if slot == cfg.FaultStart+cfg.FaultLen {
				for p := 0; p < cfg.FaultPorts; p++ {
					if err := e.RecoverOutput(p); err != nil {
						return r, err
					}
				}
			}
		}
		if slot < cfg.Slots {
			for i := 0; i < cfg.N; i++ {
				dst := gen.Next(i)
				if dst == traffic.NoPacket {
					continue
				}
				seq++
				switch aerr := e.AdmitClass(i, dst, classTab[slot][i], seq, 0, 0); {
				case aerr == nil:
				case errors.Is(aerr, rt.ErrBackpressure):
					r.Backpressured++
				case errors.Is(aerr, rt.ErrPortDown) && faulted:
					r.Rejected++
				default:
					return r, fmt.Errorf("rank %s: slot %d: AdmitClass: %v", rank, slot, aerr)
				}
			}
			gen.Advance()
		}
		e.Tick()
		for j := 0; j < cfg.N; j++ {
			for {
				select {
				case f := <-e.Output(j):
					lat[f.Class] = append(lat[f.Class], f.Departed-f.Admitted)
					continue
				default:
				}
				break
			}
		}
		if slot >= cfg.Slots && st.Backlog.Value() == 0 {
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

// runStudy sweeps every requested rank over the same trace, fault-free
// and faulted.
func runStudy(cfg studyConfig) ([]run, error) {
	arrivals, classTab, err := buildTrace(cfg)
	if err != nil {
		return nil, err
	}
	runs := make([]run, 0, 2*len(cfg.Ranks))
	for _, rank := range cfg.Ranks {
		for _, faulted := range []bool{false, true} {
			r, err := runRank(cfg, rank, faulted, arrivals, classTab)
			if err != nil {
				return nil, err
			}
			runs = append(runs, r)
		}
	}
	return runs, nil
}

func main() {
	var (
		n          = flag.Int("n", 8, "switch port count")
		slots      = flag.Int64("slots", 6_000, "trace length in slots (the run drains past it)")
		load       = flag.Float64("load", 0.92, "offered load per input")
		classSpec  = flag.String("classes", "rt:0:4:16,std:1:2:64,bulk:2:1", "class spec (name:priority:weight:slo,...)")
		mixSpec    = flag.String("mix", "2,3,5", "per-class traffic weights by class index")
		ranks      = flag.String("ranks", strings.Join(pifo.Names(), ","), "comma-separated rank functions to compare")
		schedN     = flag.String("scheduler", "lcf_central_rr", "sched registry name for the crossbar scheduler")
		seed       = flag.Uint64("seed", 42, "base RNG seed")
		classQCap  = flag.Int("classqcap", 0, "per-(input,output) PIFO bound (0 = runtime default)")
		faultStart = flag.Int64("fault-start", 2_000, "slot at which the fault window opens")
		faultLen   = flag.Int64("fault-len", 600, "fault window length in slots")
		faultPorts = flag.Int("fault-ports", 3, "outputs 0..k-1 down during the window")
		csv        = flag.Bool("csv", false, "emit CSV instead of an aligned table")
	)
	flag.Parse()

	if *n <= 0 {
		fatalUsage("-n must be positive (got %d)", *n)
	}
	if *slots <= 0 {
		fatalUsage("-slots must be positive (got %d)", *slots)
	}
	if *load <= 0 || *load > 1 {
		fatalUsage("-load must be in (0,1] (got %g)", *load)
	}
	if *classQCap < 0 {
		fatalUsage("-classqcap must be >= 0 (got %d)", *classQCap)
	}
	if *faultStart < 0 || *faultLen < 0 {
		fatalUsage("-fault-start and -fault-len must be >= 0")
	}
	if *faultPorts < 0 || *faultPorts >= *n {
		fatalUsage("-fault-ports must be in [0, n) (got %d)", *faultPorts)
	}
	classes, err := pifo.ParseClasses(*classSpec)
	if err != nil {
		fatalUsage("-classes: %v", err)
	}
	mix, err := traffic.ParseWeights(*mixSpec)
	if err != nil {
		fatalUsage("-mix: %v", err)
	}
	if len(mix) != len(classes) {
		fatalUsage("-mix names %d classes, -classes has %d", len(mix), len(classes))
	}
	cfg := studyConfig{
		N: *n, Slots: *slots, Load: *load,
		Classes: *classSpec, Mix: mix,
		Ranks: strings.Split(*ranks, ","), Scheduler: *schedN, Seed: *seed,
		ClassQCap:  *classQCap,
		FaultStart: *faultStart, FaultLen: *faultLen, FaultPorts: *faultPorts,
	}
	for _, rk := range cfg.Ranks {
		if _, err := pifo.NewRanker(rk, classes); err != nil {
			fatalUsage("-ranks: %v", err)
		}
	}

	runs, err := runStudy(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lcfclass: %v\n", err)
		os.Exit(1)
	}
	if *csv {
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
		cfg.N, cfg.Classes, *mixSpec, cfg.Load, cfg.Slots, cfg.FaultPorts-1,
		cfg.FaultStart, cfg.FaultStart+cfg.FaultLen, cfg.Scheduler, cfg.Seed)
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

// fatalUsage exits with status 2, the conventional code for command-line
// usage errors.
func fatalUsage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lcfclass: "+format+"\n", args...)
	os.Exit(2)
}
