package lcf_test

import (
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllowed are the packages no program imports that stay anyway,
// each with the tests or CI job it backs. A package that a program
// reaches, or that is gone, must leave this list.
var reachAllowed = map[string]string{
	"repro/internal/chaos": "TestChaosMatrix, TestComposedChaos10k and CI's chaos job",
}

// TestEveryPackageReached fails on a non-test package of the module that
// no program reaches: not a dependency of a cmd/ binary, of the root
// facade lcf or of the bench/ module, and not in reachAllowed. Code that
// nothing runs either becomes a test of the package it checks or goes.
// It first checks that a planted orphan is caught.
func TestEveryPackageReached(t *testing.T) {
	if got := unreached([]string{"repro", "repro/internal/orphan"}, []string{"repro"}, nil); len(got) != 1 || got[0] != "repro/internal/orphan" {
		t.Fatalf("unreached missed a planted orphan: %v", got)
	}
	all := goList(t, ".", "./...")
	reached := append(goList(t, ".", "-deps", "./cmd/...", "."), goList(t, "bench", "-deps", "./...")...)
	for _, pkg := range unreached(all, reached, reachAllowed) {
		t.Errorf("%s is reached by no cmd/ binary, the root package or bench/; make it a test of the package it checks, delete it, or name what it backs in reachAllowed", pkg)
	}
	isPkg, isReached := set(all), set(reached)
	for pkg := range reachAllowed {
		if !isPkg[pkg] || isReached[pkg] {
			t.Errorf("reachAllowed names %s, which is no longer an unreached package of the module", pkg)
		}
	}
}

// unreached returns the packages of all that are neither in reached nor
// in allowed, sorted.
func unreached(all, reached []string, allowed map[string]string) []string {
	isReached := set(reached)
	var out []string
	for _, pkg := range all {
		if _, ok := allowed[pkg]; !ok && !isReached[pkg] {
			out = append(out, pkg)
		}
	}
	sort.Strings(out)
	return out
}

func set(xs []string) map[string]bool {
	m := make(map[string]bool, len(xs))
	for _, x := range xs {
		m[x] = true
	}
	return m
}

// goList runs go list with args in dir and returns the non-standard
// import paths it prints.
func goList(t *testing.T, dir string, args ...string) []string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"list", "-f", "{{if not .Standard}}{{.ImportPath}}{{end}}"}, args...)...)
	cmd.Dir = filepath.FromSlash(dir)
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list %v in %s: %v", args, dir, err)
	}
	return strings.Fields(string(out))
}
