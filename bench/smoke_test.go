package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The binaries the process-level tests need, built once.
var testLcfd, testBench, testDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "lcfbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	testDir = dir
	code := 1
	if testLcfd, err = buildLcfd(dir); err != nil {
		fmt.Fprintln(os.Stderr, err)
	} else if out, err := exec.Command("go", "build", "-o", filepath.Join(dir, "lcfbench"), ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
	} else {
		testBench = filepath.Join(dir, "lcfbench")
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkJSON is the committed BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []endToEndSpec `json:"end_to_end"`
	PerLayer   []perLayerSpec `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) (benchmarkJSON, []byte) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	return doc, raw
}

// BENCHMARK.json is the program's own table printed; a hand edit of
// either shows here. The limits are the driver's.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	doc, raw := readBenchmarkJSON(t)
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(raw)) != string(want) {
		t.Error("BENCHMARK.json differs from -print-spec; regenerate it with: bash bench/run.sh -print-spec > BENCHMARK.json")
	}
	if len(doc.Workloads) != len(workloads) || len(doc.Workloads) < 2 || len(doc.Workloads) > 8 {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !metricName.MatchString(n) {
			t.Errorf("name %q does not match %v", n, metricName)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range doc.Workloads {
		name(w.Name)
		if findWorkload(w.Name) == nil {
			t.Errorf("workload %q is not in the program", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range doc.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != lower && m.Better != higher) {
			t.Errorf("%s: bound %g, better %q", m.Name, m.Bound, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(doc.EndToEnd) != 9 || len(doc.PerLayer) < 1 || len(doc.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(doc.EndToEnd), len(doc.PerLayer))
	}
	for _, m := range doc.PerLayer {
		name(m.Name)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}
}

// Every workload, untraced and traced, at smoke sizes: every metric
// BENCHMARK.json names is emitted, finite, with its unit; nothing fails;
// end-to-end metrics are never zero; the traced pass writes its span
// file and its self times add up to the span they decompose.
func TestSmokeAllWorkloads(t *testing.T) {
	doc, _ := readBenchmarkJSON(t)
	for _, ws := range doc.Workloads {
		w := findWorkload(ws.Name)
		cfg := runConfig{seed: 5, dur: 600 * time.Millisecond, smoke: true, setups: 1, lcfd: testLcfd, outDir: testDir}
		t.Run(w.name, func(t *testing.T) {
			res, err := measure(w, cfg, false)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(doc.EndToEnd) {
				t.Errorf("%d metrics, want the %d end-to-end ones", len(res.Metrics), len(doc.EndToEnd))
			}
			for _, m := range doc.EndToEnd {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value <= 0 {
					t.Errorf("%s = %+v (present %v): want a positive finite value in %s", m.Name, v, ok, m.Unit)
				}
			}
			if res.Metrics["ok_share"].Value != 1 {
				t.Errorf("ok_share = %g", res.Metrics["ok_share"].Value)
			}
		})
		t.Run(w.name+"/traced", func(t *testing.T) {
			res, err := measure(w, cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("correct %v, failed %d", res.Correct, res.Failed)
			}
			if len(res.Metrics) != len(doc.PerLayer) {
				t.Errorf("%d metrics, want the %d per-layer ones", len(res.Metrics), len(doc.PerLayer))
			}
			for _, m := range doc.PerLayer {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s = %+v (present %v): want a finite value in %s", m.Name, v, ok, m.Unit)
				}
			}
			checkDecomposition(t, w.name, res)
			checkSpanFile(t, filepath.Join(testDir, "trace-"+w.name+".json"))
		})
	}
}

// checkDecomposition holds the traced pass to its acceptance rule: the
// children of a slot or batch span cover it to within 10 %, and no self
// time (a span minus its children) is negative.
func checkDecomposition(t *testing.T, workload string, res *result) {
	t.Helper()
	for _, name := range []string{"simswitch.self_ns", "runtime.tick_self_ns", "switchcore.self_ns", "bench.self_ns"} {
		if v := res.Metrics[name].Value; v < 0 {
			t.Errorf("%s: %s = %g, children exceed their parent", workload, name, v)
		}
	}
}

func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	whole := map[string]int64{}    // parent name → total duration
	children := map[string]int64{} // parent name → its children's total
	for _, s := range doc.Spans {
		if s.Name == "" || s.End < s.Start {
			t.Fatalf("bad span %+v", s)
		}
		whole[s.Name] += s.End - s.Start
		if s.Parent != "" {
			children[s.Parent] += s.End - s.Start
		}
	}
	for _, parent := range []string{"slot", "batch"} {
		if w := whole[parent]; w > 0 {
			if c := children[parent]; float64(c) < 0.9*float64(w) || c > w {
				t.Errorf("%s: children cover %d of %d ns of the %s spans", path, c, w, parent)
			}
		}
	}
}

// The same seed gives the same slot-domain numbers; another seed gives
// others.
func TestSlotDomainMetricsAreExact(t *testing.T) {
	for _, name := range []string{"sim_fig12a_n16", "engine_class_n64"} {
		w := findWorkload(name)
		read := func(seed uint64) (float64, float64) {
			cfg := runConfig{seed: seed, dur: 100 * time.Millisecond, smoke: true, setups: 1, outDir: testDir}
			res, err := measure(w, cfg, false)
			if err != nil {
				t.Fatal(err)
			}
			return res.Metrics["delay_mean_slots"].Value, res.Metrics["delay_p99_slots"].Value
		}
		m1, p1 := read(8)
		m2, p2 := read(8)
		m3, p3 := read(9)
		if m1 != m2 || p1 != p2 {
			t.Errorf("%s: seed 8 gave %g/%g then %g/%g", name, m1, p1, m2, p2)
		}
		if m1 == m3 && p1 == p3 {
			t.Errorf("%s: seeds 8 and 9 gave the same %g/%g", name, m1, p1)
		}
	}
}

// The driver's command line, on the built binary: the last line of
// standard output is the result object with exactly the four keys.
func TestResultLine(t *testing.T) {
	out, err := exec.Command(testBench, "--workload", "engine_voq_n64", "--seed", "3", "--seconds", "0.3",
		"--trace", "0", "-smoke", "-out", testDir).Output()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var obj map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &obj); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, out)
	}
	if len(obj) != 4 {
		t.Errorf("result has keys %v, want exactly correct, attempted, failed, metrics", obj)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := obj[k]; !ok {
			t.Errorf("result lacks %q", k)
		}
	}
	if err := exec.Command(testBench, "--workload", "nonesuch").Run(); err == nil {
		t.Error("an unknown workload must exit non-zero")
	}
}

func alive(pid int) bool {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return false
	}
	// A zombie has exited; only its parent's wait is outstanding.
	f := strings.Fields(string(raw[strings.LastIndexByte(string(raw), ')')+1:]))
	return len(f) > 0 && f[0] != "Z"
}

// No exit path leaves an lcfd behind — not even the benchmark being
// killed outright in the middle of a wire run.
func TestNoOrphanedDaemonWhenKilled(t *testing.T) {
	cmd := exec.Command(testBench, "-workload", "wire_plain_w64", "-seconds", "30", "-smoke", "-lcfd", testLcfd, "-out", testDir)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	pidLine := regexp.MustCompile(`lcfd pid (\d+)`)
	pid := 0
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if m := pidLine.FindStringSubmatch(sc.Text()); m != nil {
			pid, _ = strconv.Atoi(m[1])
			break
		}
	}
	if pid == 0 || !alive(pid) {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("no running lcfd reported (pid %d)", pid)
	}
	time.Sleep(200 * time.Millisecond) // into the measurement
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for alive(pid) {
		if time.Now().After(deadline) {
			syscall.Kill(pid, syscall.SIGKILL)
			t.Fatalf("lcfd %d outlived the killed benchmark", pid)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A daemon that ignores SIGINT is killed after the timeout and the stop
// reports it; one that exits without a ledger is reported too.
func TestDaemonStopTimeoutAndMissingLedger(t *testing.T) {
	stubborn, err := spawn("sh", "-c", "trap '' INT; while :; do sleep 0.05; done")
	if err != nil {
		t.Fatal(err)
	}
	stubborn.exitTimeout = 200 * time.Millisecond
	time.Sleep(100 * time.Millisecond) // let the shell install its trap
	pid := stubborn.pid()
	if _, err := stubborn.stop(); err == nil || !strings.Contains(err.Error(), "killed") {
		t.Errorf("stop of a daemon ignoring SIGINT: %v", err)
	}
	if alive(pid) {
		t.Errorf("process %d survived stop", pid)
	}

	silent, err := spawn("sh", "-c", "echo lcfd: shutting down; exec sleep 30")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := silent.stop(); err == nil || !strings.Contains(err.Error(), "no exit ledger") {
		t.Errorf("stop of a daemon without a ledger: %v", err)
	}
}

// startDaemon fails cleanly, leaving nothing behind, when the binary is
// not an lcfd.
func TestStartDaemonRefusesNonDaemon(t *testing.T) {
	if _, err := startDaemon("true"); err == nil {
		t.Error("a binary that exits at once must not count as started")
	}
	if _, err := startDaemon(filepath.Join(testDir, "nonesuch")); err == nil {
		t.Error("a missing binary must be reported")
	}
}
