// Package experiment is the harness that regenerates the paper's
// evaluation: it sweeps offered load across a set of schedulers (Figure
// 12a), normalizes latencies against the output-buffered reference (Figure
// 12b), and runs the extension experiments (saturation throughput,
// iteration ablation, traffic-pattern sweeps) described in EXPERIMENTS.md.
//
// Simulation runs are independent, so the sweep fans out over a bounded
// worker pool — one goroutine per CPU by default — and reassembles results
// in deterministic order. Every run derives its seed from (base seed,
// scheduler, load, repeat), so a sweep's output is reproducible regardless
// of worker interleaving.
package experiment

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sched/registry"
	"repro/internal/simswitch"
	"repro/internal/switchcore"
	"repro/internal/traffic"
)

// OutbufName is the pseudo-scheduler label of the output-buffered
// reference switch in Figure 12.
const OutbufName = "outbuf"

// CICQName is the pseudo-scheduler label of the crosspoint-buffered
// (CICQ) switch: the least-choice rule applied by distributed dispatch
// and pull arbiters instead of a central matching. Like OutbufName it
// selects a switch organization, not a registry scheduler.
const CICQName = switchcore.CICQScheduler

// Pattern names accepted by Config.Pattern.
const (
	PatternUniform     = "uniform"
	PatternHotspot     = "hotspot"
	PatternDiagonal    = "diagonal"
	PatternLogDiagonal = "logdiagonal"
	PatternBursty      = "bursty"
	PatternUnbalanced  = "unbalanced"
)

// Config parameterizes a sweep. Zero values take the paper's Figure 12
// settings via Normalize.
type Config struct {
	N          int
	Schedulers []string  // registry names plus OutbufName and CICQName
	Loads      []float64 // offered loads to sweep
	Iterations int       // for the iterative schedulers
	Seed       uint64
	Repeats    int // independent replications per point (≥1)

	WarmupSlots  int64
	MeasureSlots int64
	VOQCap       int
	PQCap        int
	OutBufCap    int

	Pattern     string
	HotspotFrac float64 // PatternHotspot only; 0 = traffic.DefaultHotspotFrac
	MeanBurst   float64 // PatternBursty only; 0 = traffic.DefaultMeanBurst
	Unbalance   float64 // PatternUnbalanced only (w factor)
	Speedup     int     // fabric speedup (CIOQ extension); 0/1 = none

	Workers int // parallel runs; 0 = GOMAXPROCS
}

// Normalize applies the paper's defaults.
func (c *Config) Normalize() error {
	if c.N == 0 {
		c.N = 16
	}
	if c.N < 0 {
		return fmt.Errorf("experiment: negative port count")
	}
	if len(c.Schedulers) == 0 {
		c.Schedulers = append(registry.Figure12Names(), OutbufName)
	}
	if len(c.Loads) == 0 {
		c.Loads = DefaultLoads()
	}
	for _, l := range c.Loads {
		if l < 0 || l > 1 {
			return fmt.Errorf("experiment: load %g out of [0,1]", l)
		}
	}
	if c.Iterations == 0 {
		c.Iterations = 4
	}
	if c.Repeats <= 0 {
		c.Repeats = 1
	}
	if c.WarmupSlots == 0 {
		c.WarmupSlots = 10000
	}
	if c.MeasureSlots == 0 {
		c.MeasureSlots = 50000
	}
	if c.Pattern == "" {
		c.Pattern = PatternUniform
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Unbalance < 0 || c.Unbalance > 1 {
		return fmt.Errorf("experiment: unbalance %g out of [0,1]", c.Unbalance)
	}
	if !slices.Contains(traffic.PatternNames(), c.Pattern) {
		return fmt.Errorf("experiment: unknown traffic pattern %q", c.Pattern)
	}
	return nil
}

// Point is one (scheduler, load) cell of a sweep, aggregated over repeats.
type Point struct {
	Scheduler string
	Load      float64
	// MeanDelay averages the per-run mean queuing delays; DelaySpread is
	// the across-repeat standard deviation of those means (0 for a single
	// repeat).
	MeanDelay   float64
	DelaySpread float64
	Throughput  float64
	DropRate    float64
	MaxQueue    int
	Packets     int64
}

// Sweep is the full result grid.
type Sweep struct {
	Cfg    Config
	Points map[string][]Point // scheduler → points in Loads order
}

// Get returns the point for (scheduler, load index).
func (s *Sweep) Get(scheduler string, loadIdx int) Point {
	return s.Points[scheduler][loadIdx]
}

// DefaultLoads returns the load grid used for Figure 12: 0.05 steps up to
// 0.9, then finer 0.025 steps through the region where the curves separate.
func DefaultLoads() []float64 {
	var loads []float64
	for l := 0.05; l < 0.901; l += 0.05 {
		loads = append(loads, round3(l))
	}
	for l := 0.925; l < 1.001; l += 0.025 {
		loads = append(loads, round3(l))
	}
	return loads
}

func round3(x float64) float64 {
	return float64(int(x*1000+0.5)) / 1000
}

// runSeed derives a deterministic per-run seed so results do not depend on
// worker scheduling.
func runSeed(base uint64, schedName string, load float64, repeat int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%.6f|%d", base, schedName, load, repeat)
	return h.Sum64()
}

// runOne executes a single simulation run.
func (c *Config) runOne(schedName string, load float64, repeat int) (*simswitch.Result, error) {
	seed := runSeed(c.Seed, schedName, load, repeat)
	gen, err := traffic.NewPattern(c.Pattern, c.N, load, traffic.Params{
		HotspotFrac: c.HotspotFrac, MeanBurst: c.MeanBurst, Unbalance: &c.Unbalance,
	}, seed)
	if err != nil {
		return nil, err
	}
	simCfg := simswitch.Config{
		N:            c.N,
		Gen:          gen,
		VOQCap:       c.VOQCap,
		PQCap:        c.PQCap,
		OutBufCap:    c.OutBufCap,
		WarmupSlots:  c.WarmupSlots,
		MeasureSlots: c.MeasureSlots,
	}
	if c.Speedup > 1 && schedName != OutbufName && schedName != CICQName && schedName != "fifo" {
		simCfg.Speedup = c.Speedup
	}
	switch schedName {
	case OutbufName:
		simCfg.Mode = simswitch.OutputBuffered
	case CICQName:
		simCfg.Mode = simswitch.CICQ
	case "fifo":
		simCfg.Mode = simswitch.FIFO
	default:
		simCfg.Mode = simswitch.VOQ
	}
	if schedName != OutbufName && schedName != CICQName {
		s, err := registry.New(schedName, c.N, sched.Options{Iterations: c.Iterations, Seed: seed + 1})
		if err != nil {
			return nil, err
		}
		simCfg.Scheduler = s
	}
	return simswitch.Run(simCfg)
}

type job struct {
	schedIdx, loadIdx, repeat int
}

type jobResult struct {
	job
	res *simswitch.Result
	err error
}

// Run executes the sweep, parallelizing independent runs across the worker
// pool, and returns the aggregated grid.
func Run(cfg Config) (*Sweep, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}

	var jobs []job
	for si := range cfg.Schedulers {
		for li := range cfg.Loads {
			for r := 0; r < cfg.Repeats; r++ {
				jobs = append(jobs, job{si, li, r})
			}
		}
	}

	results := make([]jobResult, len(jobs))
	jobCh := make(chan int)
	var wg sync.WaitGroup
	workers := cfg.Workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobCh {
				j := jobs[idx]
				res, err := cfg.runOne(cfg.Schedulers[j.schedIdx], cfg.Loads[j.loadIdx], j.repeat)
				results[idx] = jobResult{job: j, res: res, err: err}
			}
		}()
	}
	for idx := range jobs {
		jobCh <- idx
	}
	close(jobCh)
	wg.Wait()

	// Aggregate repeats.
	sweep := &Sweep{Cfg: cfg, Points: make(map[string][]Point, len(cfg.Schedulers))}
	for si, name := range cfg.Schedulers {
		points := make([]Point, len(cfg.Loads))
		for li, load := range cfg.Loads {
			var delayAcross metrics.Stream
			var thr, drop float64
			var pkts int64
			maxQ := 0
			for _, jr := range results {
				if jr.err != nil {
					return nil, fmt.Errorf("experiment: %s load %g: %w",
						cfg.Schedulers[jr.schedIdx], cfg.Loads[jr.loadIdx], jr.err)
				}
				if jr.schedIdx != si || jr.loadIdx != li {
					continue
				}
				delayAcross.Add(jr.res.Delay.Mean())
				thr += jr.res.Counters.Throughput()
				drop += jr.res.Counters.DropRate()
				pkts += jr.res.Delay.Count()
				if jr.res.MaxVOQLen > maxQ {
					maxQ = jr.res.MaxVOQLen
				}
			}
			points[li] = Point{
				Scheduler:   name,
				Load:        load,
				MeanDelay:   delayAcross.Mean(),
				DelaySpread: delayAcross.StdDev(),
				Throughput:  thr / float64(cfg.Repeats),
				DropRate:    drop / float64(cfg.Repeats),
				MaxQueue:    maxQ,
				Packets:     pkts,
			}
		}
		sweep.Points[name] = points
	}
	return sweep, nil
}

// RelativeTo returns point delays normalized by the reference scheduler's
// delay at the same load — the transformation that turns Figure 12a into
// Figure 12b. Loads where the reference measured no packets yield NaN-free
// zeros.
func (s *Sweep) RelativeTo(reference string) (map[string][]Point, error) {
	ref, ok := s.Points[reference]
	if !ok {
		return nil, fmt.Errorf("experiment: reference %q not in sweep", reference)
	}
	out := make(map[string][]Point, len(s.Points))
	for name, pts := range s.Points {
		rel := make([]Point, len(pts))
		copy(rel, pts)
		for i := range rel {
			if ref[i].MeanDelay > 0 {
				rel[i].MeanDelay = pts[i].MeanDelay / ref[i].MeanDelay
				rel[i].DelaySpread = pts[i].DelaySpread / ref[i].MeanDelay
			} else {
				rel[i].MeanDelay = 0
				rel[i].DelaySpread = 0
			}
		}
		out[name] = rel
	}
	return out, nil
}

// FindCrossover returns the lowest load from which scheduler a's mean
// delay stays below scheduler b's through the rest of the grid — the
// crossover points Section 6.3 describes (e.g. lcf_central_rr overtaking
// lcf_central above ≈0.9). It returns ok=false if a never permanently
// crosses below b.
func (s *Sweep) FindCrossover(a, b string) (load float64, ok bool) {
	pa, okA := s.Points[a]
	pb, okB := s.Points[b]
	if !okA || !okB || len(pa) == 0 {
		return 0, false
	}
	for start := 0; start < len(pa); start++ {
		all := true
		for k := start; k < len(pa); k++ {
			if pa[k].MeanDelay >= pb[k].MeanDelay {
				all = false
				break
			}
		}
		if all {
			return pa[start].Load, true
		}
	}
	return 0, false
}

// FormatTable renders the sweep as an aligned text table: one row per
// load, one column per scheduler, values from the given field extractor.
func FormatTable(cfg Config, grid map[string][]Point, value func(Point) float64) string {
	var b strings.Builder
	names := make([]string, 0, len(grid))
	for _, n := range cfg.Schedulers {
		if _, ok := grid[n]; ok {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		for n := range grid {
			names = append(names, n)
		}
		sort.Strings(names)
	}
	fmt.Fprintf(&b, "%-7s", "load")
	for _, n := range names {
		fmt.Fprintf(&b, " %14s", n)
	}
	b.WriteByte('\n')
	for li, load := range cfg.Loads {
		fmt.Fprintf(&b, "%-7.3f", load)
		for _, n := range names {
			fmt.Fprintf(&b, " %14.3f", value(grid[n][li]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatJSON renders the grid as indented JSON for machine consumption:
// configuration echo plus every point with its full measurement set
// (delay, spread, throughput, drops, queue peaks).
func FormatJSON(cfg Config, grid map[string][]Point) (string, error) {
	doc := struct {
		N          int                `json:"n"`
		Pattern    string             `json:"pattern"`
		Iterations int                `json:"iterations"`
		Seed       uint64             `json:"seed"`
		Repeats    int                `json:"repeats"`
		Warmup     int64              `json:"warmupSlots"`
		Measure    int64              `json:"measureSlots"`
		Loads      []float64          `json:"loads"`
		Series     map[string][]Point `json:"series"`
	}{
		N: cfg.N, Pattern: cfg.Pattern, Iterations: cfg.Iterations,
		Seed: cfg.Seed, Repeats: cfg.Repeats,
		Warmup: cfg.WarmupSlots, Measure: cfg.MeasureSlots,
		Loads: cfg.Loads, Series: grid,
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return "", fmt.Errorf("experiment: encoding JSON: %w", err)
	}
	return string(out) + "\n", nil
}

// FormatCSV renders the grid as CSV for external plotting.
func FormatCSV(cfg Config, grid map[string][]Point, value func(Point) float64) string {
	var b strings.Builder
	b.WriteString("load")
	for _, n := range cfg.Schedulers {
		if _, ok := grid[n]; ok {
			b.WriteString("," + n)
		}
	}
	b.WriteByte('\n')
	for li, load := range cfg.Loads {
		fmt.Fprintf(&b, "%g", load)
		for _, n := range cfg.Schedulers {
			pts, ok := grid[n]
			if !ok {
				continue
			}
			fmt.Fprintf(&b, ",%g", value(pts[li]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
