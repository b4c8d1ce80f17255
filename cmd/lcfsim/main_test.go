package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	lcf "repro"
	"repro/internal/traffic"
)

func TestCheckFlags(t *testing.T) {
	ok := func(workers, speedup, n, iters, repeats int, pattern string) {
		t.Helper()
		if err := checkFlags(workers, speedup, n, iters, repeats, pattern); err != nil {
			t.Errorf("checkFlags(%d,%d,%d,%d,%d,%q) = %v, want nil",
				workers, speedup, n, iters, repeats, pattern, err)
		}
	}
	bad := func(workers, speedup, n, iters, repeats int, pattern, wantSub string) {
		t.Helper()
		err := checkFlags(workers, speedup, n, iters, repeats, pattern)
		if err == nil {
			t.Errorf("checkFlags(%d,%d,%d,%d,%d,%q) accepted, want error",
				workers, speedup, n, iters, repeats, pattern)
			return
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("error %q does not mention %q", err, wantSub)
		}
	}

	ok(0, 1, 16, 4, 1, "")
	ok(8, 2, 16, 4, 3, "bursty")
	for _, p := range traffic.PatternNames() {
		ok(0, 1, 16, 4, 1, p)
	}

	bad(-1, 1, 16, 4, 1, "", "-workers")
	bad(0, 0, 16, 4, 1, "", "-speedup")
	bad(0, -3, 16, 4, 1, "", "-speedup")
	bad(0, 1, 16, 4, 1, "nonsense", "-pattern")
	bad(0, 1, 0, 4, 1, "", "-n")
	bad(0, 1, 16, 0, 1, "", "-iterations")
	bad(0, 1, 16, 4, 0, "", "-repeat")
}

// TestKnownPatternsMatchSimulator holds the sweep harness to the pattern
// table -pattern is checked against: every name it lists must survive
// config normalization and run end to end.
func TestKnownPatternsMatchSimulator(t *testing.T) {
	for _, p := range traffic.PatternNames() {
		cfg := lcf.SweepConfig{
			N: 4, Pattern: p, Loads: []float64{0.1},
			Schedulers: []string{"islip"}, WarmupSlots: 1, MeasureSlots: 2,
		}
		if _, err := lcf.Sweep(cfg); err != nil {
			t.Errorf("pattern %q rejected by the sweep harness: %v", p, err)
		}
	}
}

var (
	binPath   string
	buildOnce sync.Once
	buildErr  error
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "lcfsim-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binPath = filepath.Join(dir, "lcfsim")
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// lcfsimBin builds the command once per test binary and returns its path.
func lcfsimBin(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		if out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("%v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building lcfsim: %v", buildErr)
	}
	return binPath
}

// recordedRow matches a results/README.md row whose regeneration command
// is an lcfsim run: | `file` | what | `go run ./cmd/lcfsim args` |.
var recordedRow = regexp.MustCompile("^\\| `([a-z0-9_]+\\.txt)` \\|.*\\| `go run \\./cmd/lcfsim ([^`]*)` \\|$")

// checkRecorded reruns the commands results/README.md records for the
// given files and compares stdout byte for byte with the committed
// files: each study is a golden of the engine, the tier it measures and
// every RNG stream it draws from, so a refactor that shifts any of them
// fails here and not at the next hand regeneration.
func checkRecorded(t *testing.T, files ...string) {
	t.Helper()
	bin := lcfsimBin(t)
	readme, err := os.ReadFile(filepath.Join("..", "..", "results", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	cmds := map[string][]string{}
	for _, line := range strings.Split(string(readme), "\n") {
		if m := recordedRow.FindStringSubmatch(line); m != nil {
			cmds[m[1]] = strings.Fields(m[2])
		}
	}
	for _, file := range files {
		args, ok := cmds[file]
		if !ok {
			t.Errorf("results/README.md records no lcfsim command for %s", file)
			continue
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "results", file))
		if err != nil {
			t.Fatal(err)
		}
		got, err := exec.Command(bin, args...).Output()
		if err != nil {
			t.Fatalf("lcfsim %v: %v", args, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("lcfsim %v no longer reproduces results/%s:\n--- got\n%s--- want\n%s", args, file, got, want)
		}
	}
}

// TestFlowRecordedResults pins results/flows.txt and flows_hot.txt to
// their recorded -figure flows commands.
func TestFlowRecordedResults(t *testing.T) {
	checkRecorded(t, "flows.txt", "flows_hot.txt")
}

// TestClassRecordedResults pins results/classes.txt to its recorded
// -figure classes command.
func TestClassRecordedResults(t *testing.T) {
	checkRecorded(t, "classes.txt")
}

// TestFigure12aRecordedResults pins results/figure12a.txt, the paper's
// Figure 12a at every load and scheduler, to its recorded command. It
// takes about 20 s on a 2-vCPU host, so it runs only with
// LCF_RECORDED=1 (the nightly CI job).
func TestFigure12aRecordedResults(t *testing.T) {
	if os.Getenv("LCF_RECORDED") != "1" {
		t.Skip("results/figure12a.txt regenerates with LCF_RECORDED=1")
	}
	checkRecorded(t, "figure12a.txt")
}

// checkExitTwo pins the exit-code contract shared by every command in
// this repo: invalid flags exit 2, not 1.
func checkExitTwo(t *testing.T, cases ...[]string) {
	t.Helper()
	bin := lcfsimBin(t)
	for _, args := range cases {
		err := exec.Command(bin, args...).Run()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("lcfsim %v: %v, want exit status 2", args, err)
		}
	}
}

// TestUsageErrorsExitTwo covers the flags every figure parses. The
// -datapath row is a flag that went: -datapath cicq was a second
// spelling of -schedulers lcf_cicq,outbuf, and the flag package's own
// exit 2 keeps it from coming back unnoticed. The bursty, hotspot,
// diagonal and pointer rows are figures that went the same way: each was
// -figure 12a under a -pattern or a -schedulers list.
func TestUsageErrorsExitTwo(t *testing.T) {
	checkExitTwo(t,
		[]string{"-figure", "nonexistent"},
		[]string{"-loads", "x"},
		[]string{"-datapath", "cicq"},
		[]string{"-figure", "bursty"},
		[]string{"-figure", "hotspot"},
		[]string{"-figure", "diagonal"},
		[]string{"-figure", "pointer"},
	)
}

// TestFlowUsageErrorsExitTwo covers -figure flows. The study flags that
// became constants are gone, so setting one is a usage error too.
func TestFlowUsageErrorsExitTwo(t *testing.T) {
	checkExitTwo(t,
		[]string{"-figure", "flows", "-n", "0"},
		[]string{"-figure", "flows", "-flows", "0"},
		[]string{"-figure", "flows", "-skew", "-1"},
		[]string{"-figure", "flows", "-loads", "1.5"},
		[]string{"-figure", "flows", "-loads", "0.5,0.6"},
		[]string{"-figure", "flows", "-measure", "0"},
		[]string{"-figure", "flows", "-policies", "nonexistent"},
		[]string{"-figure", "flows", "-evict-every", "-1"},
	)
}

// TestClassUsageErrorsExitTwo covers -figure classes.
func TestClassUsageErrorsExitTwo(t *testing.T) {
	checkExitTwo(t,
		[]string{"-figure", "classes", "-n", "0"},
		[]string{"-figure", "classes", "-n", "4"},
		[]string{"-figure", "classes", "-measure", "0"},
		[]string{"-figure", "classes", "-loads", "1.5"},
		[]string{"-figure", "classes", "-schedulers", "islip,pim"},
		[]string{"-figure", "classes", "-ranks", "nonexistent"},
		[]string{"-figure", "classes", "-classes", "bad:x"},
		[]string{"-figure", "classes", "-mix", "1,2"},
		[]string{"-figure", "classes", "-fault-ports", "8"},
	)
}

// TestFiguresRejectUnreadFlags pins that no flag silently does nothing:
// a flag the chosen figure does not read exits 2 naming it, before any
// simulation runs.
func TestFiguresRejectUnreadFlags(t *testing.T) {
	bin := lcfsimBin(t)
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-figure", "throughput", "-json"}, "-json"},
		{[]string{"-figure", "throughput", "-loads", "0.5"}, "-loads"},
		{[]string{"-figure", "iters", "-csv"}, "-csv"},
		{[]string{"-figure", "mcast", "-loads", "0.5"}, "-loads"},
		{[]string{"-figure", "rrdensity", "-schedulers", "islip"}, "-schedulers"},
		{[]string{"-figure", "hist", "-pattern", "bursty"}, "-pattern"},
		{[]string{"-figure", "crossover", "-plot"}, "-plot"},
		{[]string{"-figure", "flows", "-speedup", "2"}, "-speedup"},
		{[]string{"-figure", "flows", "-ranks", "fifo"}, "-ranks"},
		{[]string{"-figure", "classes", "-warmup", "100"}, "-warmup"},
		{[]string{"-figure", "classes", "-policies", "po2"}, "-policies"},
		{[]string{"-figure", "12a", "-skew", "1"}, "-skew"},
	} {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, tc.args...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("lcfsim %v: %v, want exit status 2", tc.args, err)
		}
		if !strings.Contains(stderr.String(), tc.flag) {
			t.Errorf("lcfsim %v: stderr %q does not name %s", tc.args, stderr.String(), tc.flag)
		}
	}
}

// TestFigureReadsAreFlags holds the figure table to the flag set: every
// flag a figure declares must be one lcfsim defines, or the figure would
// refuse nothing under that name and accept the real flag nowhere.
func TestFigureReadsAreFlags(t *testing.T) {
	out, _ := exec.Command(lcfsimBin(t), "-h").CombinedOutput()
	defined := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(string(out), -1) {
		defined[m[1]] = true
	}
	if len(defined) == 0 {
		t.Fatalf("no flags in lcfsim -h output:\n%s", out)
	}
	for name, fig := range figures {
		for _, f := range strings.Fields(fig.reads) {
			if !defined[f] {
				t.Errorf("-figure %s declares -%s, which lcfsim does not define", name, f)
			}
		}
	}
}
