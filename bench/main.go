// Command bench is the repository's one benchmark: five named
// workloads that together cover the simulator, the lockstep engine and
// the lcfd daemon over loopback TCP, nine end-to-end metrics measured
// with tracing off, and a traced pass that attributes each slot or
// batch to the layers it crossed. BENCHMARK.json at the repository root
// describes it to the driver; README.md in this directory says what
// each workload and metric is for and how to run, trace and compare.
//
// Everything is measured from outside the layers — timing wrappers
// around their public functions, /metrics scrapes and /proc/<pid> — so
// the benchmark changes no code it measures.
//
// Usage (from the repository root; run.sh builds into .bench_build/):
//
//	bash bench/run.sh --workload engine_voq_n64 --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload all --seed 1 --seconds 15 --trace 1
//	bash bench/run.sh -compare parent.json change.json [more pairs…]
//	bash bench/run.sh -print-spec > BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// The main goroutine stays on the main thread: lcfd is started from it
// with a parent-death signal, which Linux ties to the starting thread.
func init() { runtime.LockOSThread() }

// runConfig is what one workload run is given.
type runConfig struct {
	seed uint64
	dur  time.Duration
	// smoke shrinks every fixed size (warm-ups, exact windows, probe
	// loops) so a run of well under a second still exercises each path.
	smoke bool
	// setups is how many times the set-up is done; setup_s is their
	// median and the last one is measured.
	setups int
	lcfd   string // path of the lcfd binary (wire workloads)
	outDir string
}

// outcome is what one measured run of a workload produced.
type outcome struct {
	failures
	e2e   map[string]float64
	layer map[string]float64
	// samples is the sample count behind each timing, printed beside it.
	samples map[string]int64
	// pTail is the percentile rtt_p99_us was actually read at.
	pTail float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, samples: map[string]int64{}}
}

// workload is one named set of inputs. run measures for cfg.dur; a
// non-nil tracer makes it the traced run.
type workload struct {
	name string
	run  func(cfg runConfig, tr *tracer) (*outcome, error)
}

var workloads = []workload{
	{"sim_fig12a_n16", runSim},
	{"engine_voq_n64", func(c runConfig, tr *tracer) (*outcome, error) { return runEngine(c, tr, false) }},
	{"engine_class_n64", func(c runConfig, tr *tracer) (*outcome, error) { return runEngine(c, tr, true) }},
	{"wire_plain_w64", func(c runConfig, tr *tracer) (*outcome, error) { return runWire(c, tr, false) }},
	{"wire_flow_w64", func(c runConfig, tr *tracer) (*outcome, error) { return runWire(c, tr, true) }},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricValue and result are the driver's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is a result plus what -compare needs to group it; it is what
// -o writes.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

func main() {
	var (
		name      = flag.String("workload", "all", "workload name, or all (each in its own child process)")
		seed      = flag.Uint64("seed", 1, "seed every input is generated from")
		seconds   = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace     = flag.Int("trace", 0, "1 = traced run: print the per-layer metrics and write a span file")
		smoke     = flag.Bool("smoke", false, "tiny fixed sizes, for tests")
		lcfd      = flag.String("lcfd", "", "lcfd binary for the wire workloads (default: go build it into the output directory)")
		outDir    = flag.String("out", "", "directory for span files and the lcfd build (default: out/ beside the benchmark's sources)")
		outFile   = flag.String("o", "", "also append the result, tagged with workload and seed, as one line to this file (input of -compare)")
		compare   = flag.Bool("compare", false, "compare pairs of -o files: parent.json change.json [more pairs…]")
		printSpec = flag.Bool("print-spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()

	switch {
	case *printSpec:
		raw, err := specJSON()
		if err != nil {
			fatal("%v", err)
		}
		fmt.Println(string(raw))
		return
	case *compare:
		regressed, err := compareFiles(os.Stdout, flag.Args())
		if err != nil {
			fatal("%v", err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: want --seconds > 0, --trace 0 or 1, and no positional arguments")
		os.Exit(2)
	}
	if *outDir == "" {
		*outDir = defaultOutDir()
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *trace, *smoke, *lcfd, *outDir, *outFile))
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	cfg := runConfig{
		seed: *seed, dur: time.Duration(*seconds * float64(time.Second)),
		smoke: *smoke, setups: 3, lcfd: *lcfd, outDir: *outDir,
	}
	if cfg.smoke {
		cfg.setups = 1
	}
	if strings.HasPrefix(w.name, "wire_") && cfg.lcfd == "" {
		bin, err := buildLcfd(cfg.outDir)
		if err != nil {
			fatal("%v", err)
		}
		cfg.lcfd = bin
	}
	res, err := measure(w, cfg, *trace == 1)
	if err != nil {
		fatal("%s: %v", w.name, err)
	}
	if *outFile != "" {
		raw, _ := json.Marshal(record{Workload: w.name, Seed: *seed, Trace: *trace, result: *res})
		if err := appendLine(*outFile, raw); err != nil {
			fatal("%v", err)
		}
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

// measure runs one workload and shapes its outcome into the result
// line: the end-to-end metrics of an untraced run, or the per-layer
// metrics of a traced one. The traced run alternates traced and
// untraced segments (see traceOn) and reports the tracing overhead from
// their difference.
func measure(w *workload, cfg runConfig, traced bool) (*result, error) {
	res := &result{Metrics: map[string]metricValue{}}
	if !traced {
		out, err := w.run(cfg, nil)
		if err != nil {
			return nil, err
		}
		for _, m := range endToEndSpecs {
			res.Metrics[m.Name] = metricValue{out.e2e[m.Name], m.Unit}
		}
		finish(res, out, w.name)
		return res, nil
	}

	cfg.setups = 1
	decideParent := "runtime.tick"
	if strings.HasPrefix(w.name, "sim_") {
		decideParent = "cell"
	}
	tr := newTracer(decideParent, maxStoredSpans)
	out, err := w.run(cfg, tr)
	if err != nil {
		return nil, err
	}
	path, err := tr.write(cfg.outDir, w.name)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "bench: %d spans in %s\n", len(tr.spans), path)
	for _, m := range perLayerSpecs {
		res.Metrics[m.Name] = metricValue{out.layer[m.Name], m.Unit}
	}
	finish(res, out, w.name)
	return res, nil
}

// finish fills the counts, refuses non-finite values, and prints the
// human-readable table (with sample counts) to standard error; standard
// output carries only the result line.
func finish(res *result, out *outcome, name string) {
	res.Attempted, res.Failed = out.attempted, out.failed
	res.Correct = out.failed == 0 && out.attempted > 0
	names := make([]string, 0, len(res.Metrics))
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Correct = false
			out.reasons = append(out.reasons, k+" is not finite")
			m.Value = 0
			res.Metrics[k] = m
		}
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%s: attempted %d, failed %d\n", name, res.Attempted, res.Failed)
	for _, k := range names {
		m := res.Metrics[k]
		note := ""
		if n, ok := out.samples[k]; ok {
			note = fmt.Sprintf("  (%d samples)", n)
		}
		if k == "rtt_p99_us" && out.pTail != 0 && out.pTail != 0.99 {
			note += fmt.Sprintf("  (read at p%g: too few samples for p99)", out.pTail*100)
		}
		fmt.Fprintf(os.Stderr, "  %-28s %16.6g %s%s\n", k, m.Value, m.Unit, note)
	}
	for _, r := range out.reasons {
		fmt.Fprintf(os.Stderr, "  FAILED: %s\n", r)
	}
}

// runAll runs every workload in its own fresh child process of this
// binary, so garbage-collector state and peak memory are per workload,
// and prints one result line per workload.
func runAll(seed uint64, seconds float64, trace int, smoke bool, lcfd, outDir, outFile string) int {
	self, err := os.Executable()
	if err != nil {
		fatal("%v", err)
	}
	if lcfd == "" {
		if lcfd, err = buildLcfd(outDir); err != nil {
			fatal("%v", err)
		}
	}
	code := 0
	for _, w := range workloads {
		args := []string{
			"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
			"-trace", fmt.Sprint(trace), "-lcfd", lcfd, "-out", outDir,
		}
		if smoke {
			args = append(args, "-smoke")
		}
		if outFile != "" {
			args = append(args, "-o", outFile)
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// moduleDir finds the benchmark's source directory (the one holding
// its go.mod) from the working directory: the repository root, bench/
// itself, or anywhere below bench/.
func moduleDir() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{filepath.Join(wd, "bench"), wd, filepath.Dir(wd)} {
		raw, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(raw), "module repro/bench\n") {
			return dir, nil
		}
	}
	return "", fmt.Errorf("cannot find bench/go.mod from %s; run from the repository root or from bench/", wd)
}

func defaultOutDir() string {
	dir, err := moduleDir()
	if err != nil {
		fatal("%v (or pass -out)", err)
	}
	return filepath.Join(dir, "out")
}

// buildLcfd compiles cmd/lcfd from the source tree beside the benchmark
// into dir.
func buildLcfd(dir string) (string, error) {
	mod, err := moduleDir()
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(dir, "lcfd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/lcfd")
	cmd.Dir = filepath.Dir(mod)
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/lcfd: %v\n%s", err, out)
	}
	return bin, nil
}
