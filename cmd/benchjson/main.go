// Command benchjson converts `go test -bench` output into a
// machine-readable JSON document, so benchmark results can be recorded
// under results/ and diffed across PRs without parsing free text.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem . | go run ./cmd/benchjson [-o out.json] [-note "..."]
//
// It reads benchmark result lines from stdin (everything else — the
// goos/goarch/pkg header, PASS/ok trailers, narrator output — passes
// through to the "context" fields or is ignored) and writes a JSON
// object with one entry per benchmark. ns/op is mandatory on every
// line; B/op and allocs/op appear when the run used -benchmem.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name       string `json:"name"`
	Iterations int64  `json:"iterations"`
	// GoMaxProcs is the -N suffix go test appends to every benchmark name
	// when GOMAXPROCS > 1: records are only comparable at equal
	// parallelism. Omitted when absent (GOMAXPROCS=1 runs carry no suffix).
	GoMaxProcs  int     `json:"gomaxprocs,omitempty"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  *int64  `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64  `json:"allocs_per_op,omitempty"`
}

// Report is the emitted document.
type Report struct {
	Note    string   `json:"note,omitempty"`
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	Pkg     string   `json:"pkg,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	note := flag.String("note", "", "free-form provenance note recorded in the document")
	min := flag.Bool("min", false, "collapse repeated names (-count=N runs) to the minimum ns/op line")
	flag.Parse()

	rep := Report{Note: *note}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			// Multi-package runs emit several pkg headers; keep the first.
			if rep.Pkg == "" {
				rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			}
		case strings.HasPrefix(line, "cpu:"):
			if rep.CPU == "" {
				rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			}
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseLine(line); ok {
				rep.Results = append(rep.Results, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read:", err)
		os.Exit(1)
	}
	if len(rep.Results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	if *min {
		rep.Results = collapseMin(rep.Results)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// collapseMin reduces repeated benchmark names — a -count=N run — to one
// entry each, keeping the line with the lowest ns/op (the comparable
// statistic on a machine with one-sided scheduling jitter). First-seen
// order is preserved.
func collapseMin(in []Result) []Result {
	var out []Result
	pos := make(map[string]int)
	for _, r := range in {
		if i, ok := pos[r.Name]; ok {
			if r.NsPerOp < out[i].NsPerOp {
				out[i] = r
			}
			continue
		}
		pos[r.Name] = len(out)
		out = append(out, r)
	}
	return out
}

// parseLine parses one benchmark line, e.g.
//
//	BenchmarkSchedulerDecision/lcf_central/n64-8  270  4117 ns/op  0 B/op  0 allocs/op
func parseLine(line string) (Result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Result{}, false
	}
	name := f[0]
	// Split off the GOMAXPROCS suffix: Benchmark.../n64-8 → Benchmark.../n64
	// with GoMaxProcs 8, so equal-parallelism runs diff by name alone.
	procs := 0
	if i := strings.LastIndex(name, "-"); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil && p > 0 {
			name, procs = name[:i], p
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: name, Iterations: iters, GoMaxProcs: procs}
	seen := false
	for i := 2; i+1 < len(f); i += 2 {
		v, unit := f[i], f[i+1]
		switch unit {
		case "ns/op":
			if r.NsPerOp, err = strconv.ParseFloat(v, 64); err != nil {
				return Result{}, false
			}
			seen = true
		case "B/op":
			if b, err := strconv.ParseInt(v, 10, 64); err == nil {
				r.BytesPerOp = &b
			}
		case "allocs/op":
			if a, err := strconv.ParseInt(v, 10, 64); err == nil {
				r.AllocsPerOp = &a
			}
		}
	}
	return r, seen
}
