package lcf_test

import (
	"os"
	"path/filepath"
	"regexp"
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
// Test/Benchmark/Fuzz function declared in the _test.go files of that
// command's packages. '^$' (run nothing) is exempt.
func TestCIPatternsMatchTests(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	check := func(what, pattern string, pkgs []string) {
		t.Helper()
		names := declaredTests(t, pkgs)
		for _, alt := range topLevelAlternatives(pattern) {
			alt = strings.SplitN(alt, "/", 2)[0] // a subtest path selects by its top level
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("%s: pattern %q does not compile: %v", what, alt, err)
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
				t.Errorf("%s: %q matches no test, benchmark or fuzz target in %v", what, alt, pkgs)
			}
		}
	}
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
			check("bench table row "+cols[0], strings.ReplaceAll(cols[2], `\$`, "$"), strings.Fields(cols[1]))
		default:
			cmd, dir := goTestCommand(line)
			if cmd == nil {
				continue
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
				if !strings.HasPrefix(arg, "-") || (name != "run" && name != "skip" && name != "bench" && name != "fuzz") {
					continue
				}
				if !hasValue && k+1 < len(cmd) {
					k++
					value = cmd[k]
				}
				patterns = append(patterns, [2]string{name, value})
			}
			for _, p := range patterns {
				if p[1] == "^$" || shellVar.MatchString(p[1]) {
					continue
				}
				check("go test -"+p[0]+" in "+strings.TrimSpace(line), p[1], pkgs)
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no test-selecting pattern in the CI workflow; is the parser broken?")
	}
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

// testFunc matches a top-level Test, Benchmark or Fuzz function.
var testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)

// declaredTests returns the Test, Benchmark and Fuzz functions declared
// in the _test.go files of the given go test package patterns (./x,
// ./x/..., .), leaving out nested modules the way go test does.
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
