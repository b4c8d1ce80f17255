// Command lcfsim regenerates the offline side of the paper's evaluation
// and of every extension study: Figure 12a (mean queuing delay vs load),
// Figure 12b (delay relative to the output-buffered switch), the
// simulator experiments (saturation throughput, iteration ablation,
// traffic-pattern sweeps), and the two studies that drive the live
// engine in lockstep (flow steering, service classes).
//
// Usage:
//
//	lcfsim -figure 12a                # the headline figure
//	lcfsim -figure 12b -csv           # relative latencies, CSV for plotting
//	lcfsim -figure throughput         # saturation throughput per scheduler
//	lcfsim -figure iters              # lcf_dist/pim/islip vs iteration count
//	lcfsim -figure rrdensity          # Section 3 fairness/latency ablation
//	lcfsim -pattern bursty            # Figure 12a's grid under another pattern
//	lcfsim -schedulers rrm,islip,firm -iterations 1   # pointer disciplines
//	lcfsim -schedulers lcf_central,outbuf -loads 0.5,0.9,0.99
//	lcfsim -figure flows -seed 42 -warmup 3000 -measure 10000      # E31
//	lcfsim -figure classes -n 8 -seed 42 -loads 0.96 -measure 4000 # E32
//
// Each figure reads a declared set of flags; setting any other flag is a
// usage error (exit 2) naming it, so a flag never silently does nothing.
// All runs are deterministic for a given -seed. -measure trades accuracy
// for time; the defaults reproduce stable curves in roughly a minute on a
// laptop.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	lcf "repro"
	"repro/internal/asciiplot"
	"repro/internal/flowtable"
	"repro/internal/metrics"
	"repro/internal/pifo"
	rt "repro/internal/runtime"
	"repro/internal/traffic"
)

// options carries the flags a figure reads beyond lcf.SweepConfig.
type options struct {
	csv, json, plot bool
	flows           int
	skew            float64
	policies, ranks []string
}

// figure is one -figure value: the flags it reads besides -figure
// (space-separated) and how it runs.
type figure struct {
	reads string
	run   func(lcf.SweepConfig, options)
}

// Flag groups the figures share. Every figure reads base; a figure that
// calls lcf.Sweep reads what the sweep harness reads, less what it fixes.
const (
	base  = "n seed warmup measure"
	sweep = base + " iterations repeat workers speedup pattern loads schedulers"
)

var figures = map[string]figure{
	"12a":        {sweep + " csv json plot", func(c lcf.SweepConfig, o options) { runDelay(c, o, false) }},
	"12b":        {sweep + " csv json plot", func(c lcf.SweepConfig, o options) { runDelay(c, o, true) }},
	"throughput": {base + " iterations repeat workers speedup pattern schedulers csv", runThroughput},
	"iters":      {base + " repeat workers speedup pattern loads schedulers", runIterAblation},
	"rrdensity":  {base + " iterations repeat workers speedup pattern loads csv", runRRDensity},
	"fairness":   {base + " iterations speedup pattern loads schedulers", runFairness},
	"speedup":    {base + " iterations repeat workers pattern loads schedulers", runSpeedupAblation},
	"hist":       {base + " iterations loads schedulers", runHistogram},
	"mcast":      {base, runMulticast},
	"pipeline":   {base + " iterations loads schedulers", runPipelineAblation},
	"choice":     {base + " loads", runChoiceHypothesis},
	"unbalanced": {base + " iterations repeat workers speedup schedulers", runUnbalanced},
	"crossover":  {sweep, runCrossovers},
	"flows":      {base + " loads schedulers csv flows skew policies", runFlows},
	"classes":    {"n seed measure loads schedulers csv ranks", runClasses},
}

func main() {
	var (
		figName    = flag.String("figure", "12a", "what to regenerate: "+strings.Join(figureNames(), ", "))
		n          = flag.Int("n", 16, "switch port count")
		schedulers = flag.String("schedulers", "", "comma-separated scheduler list (default: the Figure 12 set); the pseudo-schedulers outbuf and lcf_cicq select switch organizations; flows and classes take one (default lcf_central_rr)")
		loads      = flag.String("loads", "", "comma-separated load list (default: the Figure 12 grid); flows and classes take one (default 0.7 and 0.92)")
		iterations = flag.Int("iterations", 4, "iterations for the iterative schedulers")
		seed       = flag.Uint64("seed", 1, "base RNG seed")
		repeats    = flag.Int("repeat", 1, "independent replications per point")
		warmup     = flag.Int64("warmup", 10000, "warmup slots (not measured)")
		measure    = flag.Int64("measure", 50000, "measured slots (classes: trace length, the run drains past it)")
		workers    = flag.Int("workers", 0, "parallel simulations (0 = all CPUs)")
		csv        = flag.Bool("csv", false, "emit CSV instead of an aligned table")
		speedup    = flag.Int("speedup", 1, "fabric speedup (CIOQ extension)")
		pattern    = flag.String("pattern", "", "traffic pattern: "+strings.Join(traffic.PatternNames(), ", "))
		plot       = flag.Bool("plot", false, "render 12a/12b as an ASCII chart instead of a table")
		jsonOut    = flag.Bool("json", false, "emit JSON for the delay sweeps (12a, 12b)")
		flows      = flag.Int("flows", 100_000, "flows: flow-id population (steering table is sized 2x)")
		skew       = flag.Float64("skew", 0.8, "flows: Zipf popularity exponent (0 = uniform)")
		policies   = flag.String("policies", strings.Join(flowtable.Names(), ","), "flows: comma-separated steering policies to compare")
		ranks      = flag.String("ranks", strings.Join(pifo.Names(), ","), "classes: comma-separated rank functions to compare")
	)
	flag.Parse()

	fig, ok := figures[*figName]
	if !ok {
		usage("unknown -figure %q (known: %s)", *figName, strings.Join(figureNames(), ", "))
	}
	reads := strings.Fields(fig.reads)
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "figure" && !slices.Contains(reads, f.Name) {
			usage("-figure %s does not read -%s", *figName, f.Name)
		}
	})
	// Validate flags up front with usage exit code 2: these used to be
	// accepted silently (negative -workers ran serially, bad -pattern
	// failed deep inside the sweep) instead of failing fast.
	if err := checkFlags(*workers, *speedup, *n, *iterations, *repeats, *pattern); err != nil {
		usage("%v", err)
	}

	cfg := lcf.SweepConfig{
		N:            *n,
		Iterations:   *iterations,
		Seed:         *seed,
		Repeats:      *repeats,
		WarmupSlots:  *warmup,
		MeasureSlots: *measure,
		Workers:      *workers,
		Speedup:      *speedup,
		Pattern:      *pattern,
	}
	if *schedulers != "" {
		cfg.Schedulers = strings.Split(*schedulers, ",")
	}
	if *loads != "" {
		for _, f := range strings.Split(*loads, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				usage("bad -loads value %q: %v", f, err)
			}
			cfg.Loads = append(cfg.Loads, v)
		}
	}
	fig.run(cfg, options{
		csv: *csv && !*jsonOut, json: *jsonOut, plot: *plot,
		flows: *flows, skew: *skew,
		policies: strings.Split(*policies, ","), ranks: strings.Split(*ranks, ","),
	})
}

func figureNames() []string {
	names := make([]string, 0, len(figures))
	for name := range figures {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lcfsim: "+format+"\n", args...)
	os.Exit(1)
}

// checkFlags rejects flag combinations that would otherwise be accepted
// silently or fail deep inside a run.
func checkFlags(workers, speedup, n, iterations, repeats int, pattern string) error {
	if workers < 0 {
		return fmt.Errorf("-workers must be ≥ 0 (0 = all CPUs), got %d", workers)
	}
	if speedup < 1 {
		return fmt.Errorf("-speedup must be ≥ 1 (1 = no speedup), got %d", speedup)
	}
	if known := traffic.PatternNames(); pattern != "" && !slices.Contains(known, pattern) {
		return fmt.Errorf("unknown -pattern %q (known: %s)", pattern, strings.Join(known, ", "))
	}
	if n <= 0 {
		return fmt.Errorf("-n must be positive, got %d", n)
	}
	if iterations < 1 {
		return fmt.Errorf("-iterations must be ≥ 1, got %d", iterations)
	}
	if repeats < 1 {
		return fmt.Errorf("-repeat must be ≥ 1, got %d", repeats)
	}
	return nil
}

// usage reports a flag error and exits with the conventional usage status 2.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lcfsim: "+format+"\n", args...)
	os.Exit(2)
}

func emit(cfg lcf.SweepConfig, grid map[string][]lcf.SweepPoint, csv bool, value func(lcf.SweepPoint) float64) {
	if csv {
		fmt.Print(lcf.FormatSweepCSV(cfg, grid, value))
	} else {
		fmt.Print(lcf.FormatSweepTable(cfg, grid, value))
	}
}

func runDelayPlot(cfg lcf.SweepConfig, relative bool) {
	res, err := lcf.Sweep(cfg)
	if err != nil {
		fatal("%v", err)
	}
	grid := res.Points
	title := fmt.Sprintf("Figure 12a — mean queuing delay [slots] vs load (n=%d, log y)", res.Cfg.N)
	yMax := 0.0
	if relative {
		grid, err = res.RelativeTo(lcf.OutbufName)
		if err != nil {
			fatal("%v", err)
		}
		title = fmt.Sprintf("Figure 12b — latency relative to output buffering (n=%d)", res.Cfg.N)
		yMax = 6 // the paper's Figure 12b tops out at 3; cap runaway fifo
	}
	var series []asciiplot.Series
	for _, name := range res.Cfg.Schedulers {
		pts, ok := grid[name]
		if !ok {
			continue
		}
		s := asciiplot.Series{Name: name}
		for _, p := range pts {
			s.X = append(s.X, p.Load)
			s.Y = append(s.Y, p.MeanDelay)
		}
		series = append(series, s)
	}
	asciiplot.SortSeriesByFinalY(series)
	out, err := asciiplot.Render(asciiplot.Config{
		Width: 72, Height: 24, LogY: !relative, YMax: yMax, Title: title,
	}, series)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Print(out)
}

// runDelay is figures 12a and 12b: a table, CSV, JSON or ASCII chart of
// mean delay (12b: relative to output buffering) vs load.
func runDelay(cfg lcf.SweepConfig, o options, relative bool) {
	if o.plot {
		runDelayPlot(cfg, relative)
		return
	}
	res, err := lcf.Sweep(cfg)
	if err != nil {
		fatal("%v", err)
	}
	grid := res.Points
	title := "Figure 12a — mean queuing delay [slots] vs load"
	if cfg.Pattern != "" && cfg.Pattern != "uniform" {
		title = fmt.Sprintf("Extension — mean queuing delay [slots] vs load, %s traffic", cfg.Pattern)
	}
	if relative {
		grid, err = res.RelativeTo(lcf.OutbufName)
		if err != nil {
			fatal("%v (add outbuf to -schedulers for figure 12b)", err)
		}
		title = "Figure 12b — latency relative to output buffering"
	}
	if o.json {
		out, err := lcf.FormatSweepJSON(res.Cfg, grid)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Print(out)
		return
	}
	if !o.csv {
		fmt.Printf("%s\n(n=%d, %s traffic, %d iterations, warmup %d, measured %d slots, seed %d, repeats %d)\n\n",
			title, res.Cfg.N, res.Cfg.Pattern, res.Cfg.Iterations, res.Cfg.WarmupSlots,
			res.Cfg.MeasureSlots, res.Cfg.Seed, res.Cfg.Repeats)
	}
	emit(res.Cfg, grid, o.csv, func(p lcf.SweepPoint) float64 { return p.MeanDelay })
}

func runThroughput(cfg lcf.SweepConfig, o options) {
	cfg.Loads = []float64{1.0}
	res, err := lcf.Sweep(cfg)
	if err != nil {
		fatal("%v", err)
	}
	if !o.csv {
		fmt.Printf("Extension — saturation throughput (offered load 1.0, n=%d, %s traffic)\n\n",
			res.Cfg.N, res.Cfg.Pattern)
	}
	emit(res.Cfg, res.Points, o.csv, func(p lcf.SweepPoint) float64 { return p.Throughput })
}

func runIterAblation(cfg lcf.SweepConfig, _ options) {
	if len(cfg.Loads) == 0 {
		cfg.Loads = []float64{0.95}
	}
	if len(cfg.Schedulers) == 0 {
		cfg.Schedulers = []string{"lcf_dist", "lcf_dist_rr", "pim", "islip"}
	}
	fmt.Printf("Extension — mean delay vs iteration count (load %v, n=%d)\n\n", cfg.Loads, cfg.N)
	fmt.Printf("%-6s", "iters")
	for _, s := range cfg.Schedulers {
		fmt.Printf(" %14s", s)
	}
	fmt.Println()
	for _, iters := range []int{1, 2, 3, 4, 6, 8} {
		c := cfg
		c.Iterations = iters
		res, err := lcf.Sweep(c)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("%-6d", iters)
		for _, s := range c.Schedulers {
			fmt.Printf(" %14.3f", res.Points[s][0].MeanDelay)
		}
		fmt.Println()
	}
}

func runFairness(cfg lcf.SweepConfig, _ options) {
	load := 1.0
	if len(cfg.Loads) > 0 {
		load = cfg.Loads[0]
	}
	cfg.Loads = nil
	pts, err := lcf.MeasureFairness(cfg, load)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("Extension — measured fairness at load %.2f (Section 3's guarantee, observed)\n\n", load)
	fmt.Print(lcf.FormatFairness(cfg, pts))
}

func runSpeedupAblation(cfg lcf.SweepConfig, _ options) {
	if len(cfg.Schedulers) == 0 {
		cfg.Schedulers = []string{"lcf_central_rr", "islip", "outbuf"}
	}
	if len(cfg.Loads) == 0 {
		cfg.Loads = []float64{0.9, 0.95, 0.99}
	}
	fmt.Printf("Extension — fabric speedup (CIOQ): mean delay [slots], n=%d\n\n", cfg.N)
	fmt.Printf("%-8s", "speedup")
	for _, s := range cfg.Schedulers {
		for _, l := range cfg.Loads {
			fmt.Printf(" %10s@%.2f", s, l)
		}
	}
	fmt.Println()
	for _, sp := range []int{1, 2, 3} {
		c := cfg
		c.Speedup = sp
		res, err := lcf.Sweep(c)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("%-8d", sp)
		for _, s := range c.Schedulers {
			for li := range c.Loads {
				fmt.Printf(" %15.3f", res.Points[s][li].MeanDelay)
			}
		}
		fmt.Println()
	}
}

func runHistogram(cfg lcf.SweepConfig, _ options) {
	load := 0.9
	if len(cfg.Loads) > 0 {
		load = cfg.Loads[0]
	}
	if len(cfg.Schedulers) == 0 {
		cfg.Schedulers = []string{"lcf_central", "lcf_central_rr", "pim", "islip"}
		cfg.Schedulers = append(cfg.Schedulers, lcf.OutbufName)
	}
	fmt.Printf("Extension — delay distribution at load %.2f (n=%d)\n\n", load, cfg.N)
	fmt.Printf("%-20s %8s %8s %8s %8s %10s\n", "scheduler", "mean", "p50", "p95", "p99", "max")
	for _, name := range cfg.Schedulers {
		var s lcf.Scheduler
		var err error
		if name != lcf.OutbufName {
			s, err = lcf.NewScheduler(name, cfg.N, lcf.Options{Iterations: cfg.Iterations, Seed: cfg.Seed})
			if err != nil {
				fatal("%v", err)
			}
		}
		res, err := lcf.Simulate(lcf.SimConfig{
			N: cfg.N, Scheduler: s, Load: load, Seed: cfg.Seed,
			WarmupSlots: cfg.WarmupSlots, MeasureSlots: cfg.MeasureSlots,
			HistogramBuckets: 4096,
		})
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("%-20s %8.2f %8s %8s %8s %10.0f\n", name,
			res.Delay.Mean(), histQuantile(res.Hist, 0.5), histQuantile(res.Hist, 0.95),
			histQuantile(res.Hist, 0.99), res.Delay.Max())
	}
}

// histQuantile renders one delay quantile for the distribution table.
// A quantile that lands among overflow observations — delays beyond the
// histogram's bucket range — used to print as the top bucket value,
// which made a saturated scheduler's p99 read as a clean 4095 slots.
// It prints as an explicit lower bound instead.
func histQuantile(h *metrics.Histogram, q float64) string {
	v, ok := h.QuantileOK(q)
	if !ok {
		return fmt.Sprintf(">%d", v)
	}
	return fmt.Sprintf("%d", v)
}

func runUnbalanced(cfg lcf.SweepConfig, _ options) {
	// Sweep the unbalance factor at full load and report throughput —
	// the benchmark where round-robin schedulers dip in the middle.
	if len(cfg.Schedulers) == 0 {
		cfg.Schedulers = []string{"lcf_central_rr", "lcf_dist_rr", "islip", "wfront"}
	}
	cfg.Loads = []float64{1.0}
	cfg.Pattern = "unbalanced"
	fmt.Printf("Extension — unbalanced traffic (load 1.0, n=%d): throughput vs unbalance w\n\n", cfg.N)
	fmt.Printf("%-6s", "w")
	for _, s := range cfg.Schedulers {
		fmt.Printf(" %14s", s)
	}
	fmt.Println()
	for _, w := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		c := cfg
		c.Unbalance = w
		res, err := lcf.Sweep(c)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("%-6.2f", w)
		for _, s := range c.Schedulers {
			fmt.Printf(" %14.3f", res.Points[s][0].Throughput)
		}
		fmt.Println()
	}
}

func runCrossovers(cfg lcf.SweepConfig, _ options) {
	res, err := lcf.Sweep(cfg)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("Crossover loads (first load from which A stays below B), n=%d:\n\n", cfg.N)
	pairs := [][2]string{
		{"lcf_central_rr", "lcf_central"},
		{"lcf_dist_rr", "lcf_dist"},
		{"lcf_dist_rr", "pim"},
		{"pim", "lcf_dist"},
	}
	for _, p := range pairs {
		if load, ok := res.FindCrossover(p[0], p[1]); ok {
			fmt.Printf("  %-16s crosses below %-16s at load %.3f\n", p[0], p[1], load)
		} else {
			fmt.Printf("  %-16s never stays below %-16s in this grid\n", p[0], p[1])
		}
	}
}

func runChoiceHypothesis(cfg lcf.SweepConfig, _ options) {
	if len(cfg.Loads) == 0 {
		cfg.Loads = []float64{0.8, 0.9, 0.95, 0.97, 0.99}
	}
	fmt.Printf("Extension — the Section 6.3 crossover hypothesis, measured (n=%d)\n", cfg.N)
	fmt.Printf("\"the round robin algorithm … is leveling the lengths of the VOQs\n")
	fmt.Printf("thereby maintaining choice by avoiding the VOQs to drain\"\n\n")
	fmt.Printf("%-7s %22s %22s %22s\n", "load",
		"choice (occ. VOQs/input)", "VOQ length spread", "mean delay")
	fmt.Printf("%-7s %11s %10s %11s %10s %11s %10s\n", "",
		"pure", "+rr", "pure", "+rr", "pure", "+rr")
	for _, load := range cfg.Loads {
		row := make(map[string]*lcf.SimResult)
		for _, name := range []string{"lcf_central", "lcf_central_rr"} {
			s, err := lcf.NewScheduler(name, cfg.N, lcf.Options{Seed: cfg.Seed})
			if err != nil {
				fatal("%v", err)
			}
			res, err := lcf.Simulate(lcf.SimConfig{
				N: cfg.N, Scheduler: s, Load: load, Seed: cfg.Seed,
				WarmupSlots: cfg.WarmupSlots, MeasureSlots: cfg.MeasureSlots,
			})
			if err != nil {
				fatal("%v", err)
			}
			row[name] = res
		}
		p, r := row["lcf_central"], row["lcf_central_rr"]
		fmt.Printf("%-7.2f %11.2f %10.2f %11.2f %10.2f %11.2f %10.2f\n", load,
			p.Choice.Mean(), r.Choice.Mean(),
			p.VOQSpread.Mean(), r.VOQSpread.Mean(),
			p.Delay.Mean(), r.Delay.Mean())
	}
}

func runPipelineAblation(cfg lcf.SweepConfig, _ options) {
	if len(cfg.Loads) == 0 {
		cfg.Loads = []float64{0.5, 0.8, 0.95}
	}
	schedName := "lcf_central_rr"
	if len(cfg.Schedulers) > 0 {
		schedName = cfg.Schedulers[0]
	}
	fmt.Printf("Extension — scheduling pipeline depth (%s, n=%d): mean delay [slots]\n", schedName, cfg.N)
	fmt.Printf("the paper, Section 1: pipelining relaxes the timing budget but 'the\n")
	fmt.Printf("scheduling latency adds to the overall switch forwarding latency'\n\n")
	fmt.Printf("%-7s", "depth")
	for _, l := range cfg.Loads {
		fmt.Printf(" %12.2f", l)
	}
	fmt.Println()
	for _, depth := range []int{1, 2, 3, 4} {
		fmt.Printf("%-7d", depth)
		for _, load := range cfg.Loads {
			s, err := lcf.NewScheduler(schedName, cfg.N, lcf.Options{Iterations: cfg.Iterations, Seed: cfg.Seed})
			if err != nil {
				fatal("%v", err)
			}
			res, err := lcf.Simulate(lcf.SimConfig{
				N: cfg.N, Scheduler: s, Load: load, Seed: cfg.Seed,
				PipelineDepth: depth,
				WarmupSlots:   cfg.WarmupSlots, MeasureSlots: cfg.MeasureSlots,
			})
			if err != nil {
				fatal("%v", err)
			}
			fmt.Printf(" %12.3f", res.Delay.Mean())
		}
		fmt.Println()
	}
}

func runMulticast(cfg lcf.SweepConfig, _ options) {
	fmt.Printf("Extension — multicast scheduling policies (n=%d, Section 4.3 / ref [11])\n", cfg.N)
	fmt.Printf("cell load per input × fanout = offered copies per output\n\n")
	fmt.Printf("%-14s %8s %8s %16s %12s %10s\n",
		"policy", "load", "fanout", "copies/out/slot", "cell delay", "dropped")
	for _, fanout := range []int{2, 4, 8} {
		for _, p := range []lcf.MulticastPolicy{lcf.NoSplitting, lcf.FewestFirst, lcf.LargestFirst} {
			load := 0.9 / float64(fanout) // offered copy load 0.9 per output
			res, err := lcf.SimulateMulticast(lcf.MulticastConfig{
				N: cfg.N, Policy: p, Load: load, Fanout: fanout, Seed: cfg.Seed,
				Warmup: cfg.WarmupSlots, Measure: cfg.MeasureSlots,
			})
			if err != nil {
				fatal("%v", err)
			}
			fmt.Printf("%-14s %8.3f %8d %16.3f %12.2f %10d\n",
				p, load, fanout, res.CopiesPerOutputSlot, res.CellDelay, res.Dropped)
		}
	}
}

func runRRDensity(cfg lcf.SweepConfig, o options) {
	cfg.Schedulers = []string{"lcf_central", "lcf_central_rr", "lcf_central_rrpre"}
	if len(cfg.Loads) == 0 {
		cfg.Loads = []float64{0.5, 0.8, 0.9, 0.95, 0.99, 1.0}
	}
	res, err := lcf.Sweep(cfg)
	if err != nil {
		fatal("%v", err)
	}
	if !o.csv {
		fmt.Printf("Extension — round-robin density ablation (Section 3: fairness range 0..b/n)\n")
		fmt.Printf("mean delay [slots]; guarantee per pair: none / b/n² / ≈b/n\n\n")
	}
	emit(res.Cfg, res.Points, o.csv, func(p lcf.SweepPoint) float64 { return p.MeanDelay })
}

// study is what the two live-engine figures share: one lockstep engine
// under one scheduler at one offered load.
type study struct {
	N         int
	Load      float64
	Warmup    int64 // slots run before measuring (flows)
	Measure   int64 // measured slots (flows), trace length (classes)
	Scheduler string
	Seed      uint64
}

// studyOf takes a live-engine figure's parameters from the sweep flags:
// -loads and -schedulers name at most one value each, defaulting to load
// and rt.DefaultScheduler.
func studyOf(cfg lcf.SweepConfig, load float64) study {
	s := study{
		N: cfg.N, Load: load, Warmup: cfg.WarmupSlots, Measure: cfg.MeasureSlots,
		Scheduler: rt.DefaultScheduler, Seed: cfg.Seed,
	}
	if len(cfg.Loads) > 1 || len(cfg.Schedulers) > 1 {
		usage("this figure takes one -loads value and one -schedulers name")
	}
	if len(cfg.Loads) == 1 {
		s.Load = cfg.Loads[0]
	}
	if len(cfg.Schedulers) == 1 {
		s.Scheduler = cfg.Schedulers[0]
	}
	if s.Load <= 0 || s.Load > 1 {
		usage("-loads must be in (0,1] (got %g)", s.Load)
	}
	if s.Warmup < 0 || s.Measure <= 0 {
		usage("-warmup must be >= 0 and -measure positive (got %d, %d)", s.Warmup, s.Measure)
	}
	return s
}

// engine builds the study's lockstep engine from the tier spec sp: the
// study's scheduler at the default four iterations, seeded with its seed.
func (s study) engine(sp rt.Spec) (*rt.Engine, error) {
	sp.N, sp.Scheduler, sp.Seed = s.N, s.Scheduler, s.Seed
	c, err := sp.Build()
	if err != nil {
		return nil, err
	}
	return rt.New(c)
}

// tick runs one lockstep slot, then drains every output, handing each
// delivered frame to sink.
func tick(e *rt.Engine, sink func(rt.Frame)) {
	e.Tick()
	for j := 0; j < e.N(); j++ {
		for out := e.Output(j); len(out) > 0; {
			sink(<-out)
		}
	}
}
