package lcf_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIPatternsMatchTests fails when the CI workflow selects tests or
// benchmarks by a name that matches nothing. go test -run 'X|Y' passes
// silently when X was renamed, moved or deleted, so the step would go on
// reporting success for a test that no longer runs. Every -run, -skip,
// -bench and -fuzz pattern of a go test command in the workflow, and the
// regex column of the bench job's table, is split into its top-level
// alternatives; each must match, by go test's unanchored rule, a
// Test/Benchmark/Fuzz/Example function declared in the _test.go files of
// that command's packages. '^$' (run nothing) is exempt.
func TestCIPatternsMatchTests(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	inTable := false
	for _, line := range strings.Split(string(raw), "\n") {
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasSuffix(trimmed, "<<EOF"):
			inTable = true
		case trimmed == "EOF":
			inTable = false
		case inTable:
			// name;packages;-bench regex;-benchtime;note, read by a bash
			// heredoc that turns \$ into $.
			cols := strings.Split(trimmed, ";")
			if len(cols) < 3 {
				t.Errorf("bench table row %q: want name;packages;regex;benchtime;note", trimmed)
				continue
			}
			n, misses := patternMisses(t, "bench table row "+cols[0], strings.ReplaceAll(cols[2], `\$`, "$"), strings.Fields(cols[1]))
			checked += n
			for _, miss := range misses {
				t.Error(miss)
			}
		default:
			n, misses := goTestMisses(t, line, "run", "skip", "bench", "fuzz")
			checked += n
			for _, miss := range misses {
				t.Error(miss)
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no test-selecting pattern in the CI workflow; is the parser broken?")
	}
}

// goTestMisses checks each pattern the go test command on line, if it has
// one, passes to one of the selector flags (run, skip, bench, fuzz)
// against the tests of that command's packages. It returns how many
// alternatives it checked and a message for each that matches nothing.
func goTestMisses(t *testing.T, line string, selectors ...string) (checked int, misses []string) {
	t.Helper()
	cmd, dir := goTestCommand(line)
	if cmd == nil {
		return 0, nil
	}
	var pkgs []string
	var patterns [][2]string
	for k := 0; k < len(cmd); k++ {
		arg := cmd[k]
		if strings.HasPrefix(arg, ".") {
			pkgs = append(pkgs, filepath.Join(dir, arg))
			continue
		}
		name, value, hasValue := strings.Cut(strings.TrimLeft(arg, "-"), "=")
		if !strings.HasPrefix(arg, "-") || !slices.Contains(selectors, name) {
			continue
		}
		if !hasValue && k+1 < len(cmd) {
			k++
			value = cmd[k]
		}
		patterns = append(patterns, [2]string{name, value})
	}
	if len(pkgs) == 0 {
		pkgs = []string{dir} // go test with no package tests the one in its directory
	}
	for _, p := range patterns {
		if p[1] == "^$" || shellVar.MatchString(p[1]) {
			continue
		}
		n, m := patternMisses(t, "go test -"+p[0]+" in "+strings.TrimSpace(line), p[1], pkgs)
		checked += n
		misses = append(misses, m...)
	}
	return checked, misses
}

// patternMisses splits a test-selecting pattern into its top-level
// alternatives and returns how many it checked and a message for each
// that does not compile or matches, by go test's unanchored rule, no
// Test/Benchmark/Fuzz/Example function declared in the _test.go files
// of pkgs.
func patternMisses(t *testing.T, what, pattern string, pkgs []string) (checked int, misses []string) {
	t.Helper()
	names := declaredTests(t, pkgs)
	for _, alt := range topLevelAlternatives(pattern) {
		alt = strings.SplitN(alt, "/", 2)[0] // a subtest path selects by its top level
		re, err := regexp.Compile(alt)
		if err != nil {
			misses = append(misses, fmt.Sprintf("%s: pattern %q does not compile: %v", what, alt, err))
			continue
		}
		checked++
		found := false
		for _, name := range names {
			if re.MatchString(name) {
				found = true
				break
			}
		}
		if !found {
			misses = append(misses, fmt.Sprintf("%s: %q matches no test, benchmark, fuzz target or example in %v", what, alt, pkgs))
		}
	}
	return checked, misses
}

// shellVar matches a pattern the shell fills in ("$regex"): the bench
// table's rows are checked instead.
var shellVar = regexp.MustCompile(`\$[A-Za-z{]`)

// goTestCommand returns the arguments of the go test command on a
// workflow line, split as the shell would (quotes removed) and cut at the
// first list operator, pipe or redirect, and the directory a preceding
// "cd <dir> &&" on the line moves it to; nil when the line runs no go
// test.
func goTestCommand(line string) (args []string, dir string) {
	tok := shellWords(line)
	dir = "."
	for k := 0; k+1 < len(tok); k++ {
		if tok[k] == "cd" {
			dir = tok[k+1]
		}
		if tok[k] != "go" || tok[k+1] != "test" {
			continue
		}
		for _, a := range tok[k+2:] {
			if a == "&&" || a == "||" || a == "|" || a == ";" || strings.HasPrefix(a, "<") || strings.HasPrefix(a, ">") {
				break
			}
			args = append(args, a)
		}
		return args, dir
	}
	return nil, ""
}

// shellWords splits a line on blanks outside single or double quotes and
// drops the quotes.
func shellWords(line string) []string {
	var words []string
	var cur strings.Builder
	quote, inWord := rune(0), false
	for _, r := range line {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			cur.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
				inWord = false
			}
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words
}

// topLevelAlternatives splits a regexp on the | operators outside
// parentheses and brackets.
func topLevelAlternatives(pattern string) []string {
	var alts []string
	depth, start, class, esc := 0, 0, false, false
	for k, r := range pattern {
		switch {
		case esc:
			esc = false
		case r == '\\':
			esc = true
		case class:
			class = r != ']'
		case r == '[':
			class = true
		case r == '(':
			depth++
		case r == ')':
			depth--
		case r == '|' && depth == 0:
			alts = append(alts, pattern[start:k])
			start = k + 1
		}
	}
	return append(alts, pattern[start:])
}

// testFunc matches a top-level Test, Benchmark, Fuzz or Example function.
var testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w*)\(`)

// declaredTests returns the Test, Benchmark, Fuzz and Example functions
// declared in the _test.go files of the given go test package patterns
// (./x, ./x/..., .), leaving out nested modules the way go test does.
func declaredTests(t *testing.T, pkgs []string) []string {
	t.Helper()
	var names []string
	scan := func(dir string) {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
				names = append(names, m[1])
			}
		}
	}
	for _, pkg := range pkgs {
		root, recursive := strings.CutSuffix(pkg, "...")
		root = filepath.Clean(root)
		if !recursive {
			scan(root)
			continue
		}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			base := d.Name()
			if path != root && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != root {
				return filepath.SkipDir
			}
			scan(path)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return names
}
