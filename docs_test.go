package lcf_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// mdLink matches inline markdown links and images: [text](target) /
// ![alt](target). Reference-style links and autolinks are out of scope —
// the repository's documents don't use them.
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)\)`)

// TestMarkdownLinks fails if any markdown document in the repository
// links to a file that does not exist. External links (http, https,
// mailto) are not fetched; pure-fragment links (#section) are skipped.
// This is what keeps OBSERVABILITY.md, README.md and DESIGN.md honest as
// files move: CI runs it in the docs job.
func TestMarkdownLinks(t *testing.T) {
	var docs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.EqualFold(filepath.Ext(path), ".md") {
			docs = append(docs, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) == 0 {
		t.Fatal("no markdown files found; test running from the wrong directory?")
	}

	for _, doc := range docs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range linkTargets(string(raw)) {
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			target = strings.SplitN(target, "#", 2)[0]
			if target == "" { // pure fragment: #section
				continue
			}
			resolved := filepath.Join(filepath.Dir(doc), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s links to %s, which does not exist", doc, target)
			}
		}
	}
}

// resultsRef matches any mention of a results/ JSON document, linked or
// merely backticked — EXPERIMENTS.md cites measurement records both ways.
var resultsRef = regexp.MustCompile(`results/[A-Za-z0-9_.-]+\.json`)

// TestExperimentsResultsExist holds EXPERIMENTS.md to a stronger
// standard than the link check: every results/*.json it mentions, in
// prose, backticks or links, must exist. A study whose measurement
// record was never committed (or was renamed away) fails here instead of
// silently pointing at vapor.
func TestExperimentsResultsExist(t *testing.T) {
	raw, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	refs := resultsRef.FindAllString(string(raw), -1)
	if len(refs) == 0 {
		t.Fatal("EXPERIMENTS.md mentions no results/*.json records")
	}
	seen := map[string]bool{}
	for _, ref := range refs {
		if seen[ref] {
			continue
		}
		seen[ref] = true
		if _, err := os.Stat(ref); err != nil {
			t.Errorf("EXPERIMENTS.md references %s, which does not exist", ref)
		}
	}
}

// TestPackageDocs requires a real package comment on every package in
// the module: godoc is the first page a reader lands on, and a bare
// "Package x ..." stub (or nothing) there means the design lives only in
// scattered file comments. CI's docs job runs this next to the link
// check.
func TestPackageDocs(t *testing.T) {
	fset := token.NewFileSet()
	packageDirs := map[string]bool{}
	documentedDirs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == "testdata" || d.Name() == "results" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		if f.Doc != nil {
			docText := strings.TrimSpace(f.Doc.Text())
			if len(docText) >= 60 { // a sentence, not a stub
				documentedDirs[dir] = true
			}
		}
		packageDirs[dir] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(packageDirs) < 10 {
		t.Fatalf("found only %d Go packages; test running from the wrong directory?", len(packageDirs))
	}
	var missing []string
	for dir := range packageDirs {
		if !documentedDirs[dir] {
			missing = append(missing, dir)
		}
	}
	sort.Strings(missing)
	for _, dir := range missing {
		t.Errorf("package in %s has no substantial package comment (want a doc comment of at least one full sentence on some file)", dir)
	}
}

// cmdRef and exampleRef match a command or example program path in
// prose, code spans or shell lines: cmd/<x> or ./cmd/<x>, examples/<x> or
// ./examples/<x>, not a longer path that merely ends in one.
var (
	cmdRef     = regexp.MustCompile(`(?:^|[^\w/.])(?:\./)?cmd/([a-z][a-z0-9_]*)`)
	exampleRef = regexp.MustCompile(`(?:^|[^\w/.])(?:\./)?examples/([a-z][a-z0-9_]*)`)
)

// runDocs are the documents a reader follows to run or find something.
// ROADMAP.md and CHANGES.md are history and may name what is gone.
var runDocs = []string{
	"README.md", "DESIGN.md", "EXPERIMENTS.md", "OBSERVABILITY.md",
	filepath.Join("results", "README.md"),
	filepath.Join(".claude", "skills", "verify", "SKILL.md"),
}

// TestDocsNameLiveCommands fails when a document a reader follows to run
// something names a cmd/<x> or an examples/<x> that has no directory — a
// program deleted or folded into another must take its mentions with it.
// It first checks that a planted mention of a deleted example is caught.
func TestDocsNameLiveCommands(t *testing.T) {
	if got := deadPrograms("run `go run ./examples/latencysweep` and cmd/lcfsim"); len(got) != 1 || got[0] != "examples/latencysweep" {
		t.Fatalf("deadPrograms missed a planted stale example: %v", got)
	}
	for _, doc := range runDocs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range deadPrograms(string(raw)) {
			t.Errorf("%s names %s, which has no directory", doc, path)
		}
	}
}

// deadPrograms returns each cmd/<x> and examples/<x> that doc names and
// that has no directory, once.
func deadPrograms(doc string) []string {
	var dead []string
	seen := map[string]bool{}
	for _, ref := range []struct {
		dir string
		re  *regexp.Regexp
	}{{"cmd", cmdRef}, {"examples", exampleRef}} {
		for _, m := range ref.re.FindAllStringSubmatch(doc, -1) {
			path := ref.dir + "/" + m[1]
			if seen[path] {
				continue
			}
			seen[path] = true
			if fi, err := os.Stat(filepath.FromSlash(path)); err != nil || !fi.IsDir() {
				dead = append(dead, path)
			}
		}
	}
	return dead
}

// pkgRef matches a package path in prose, code spans or shell lines:
// internal/<x>[/<y>...], ./internal/<x> or repro/internal/<x>, with a
// trailing ".go" captured so file references can be told apart.
var pkgRef = regexp.MustCompile(`(?:^|[^\w/.])(?:\./|repro/)?internal/([a-z][a-z0-9_]*(?:/[a-z][a-z0-9_]*)*)(\.go\b)?`)

// TestDocsNameLivePackages fails when one of the same documents names an
// internal/<path> package that has no directory — a package deleted,
// renamed or folded into another must take its mentions with it. File
// references (internal/<path>.go) are exempt: DESIGN.md points at deleted
// files on purpose, as history.
func TestDocsNameLivePackages(t *testing.T) {
	for _, doc := range runDocs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, m := range pkgRef.FindAllStringSubmatch(string(raw), -1) {
			if m[2] != "" || seen[m[1]] {
				continue
			}
			seen[m[1]] = true
			if fi, err := os.Stat(filepath.Join("internal", m[1])); err != nil || !fi.IsDir() {
				t.Errorf("%s names internal/%s, which has no directory", doc, m[1])
			}
		}
	}
}

// TestDocsPatternsMatchTests is TestCIPatternsMatchTests for the
// documents a reader runs commands from: every -run pattern of a go test
// command in a code span or a fenced shell line must match a test of
// that command's packages, so a test renamed, moved or deleted takes its
// documented runs with it. (-bench patterns are exempt: EXPERIMENTS.md
// and results/README.md keep the commands that made recorded results,
// some of whose benchmarks are gone.) It first checks that a planted
// stale pattern is caught.
func TestDocsPatternsMatchTests(t *testing.T) {
	if _, misses := goTestMisses(t, "go test -run 'TestFigure7|TestFigure5Pipeline' ./internal/clint", "run"); len(misses) != 1 {
		t.Fatalf("goTestMisses missed a planted stale pattern: %v", misses)
	}
	checked := 0
	for _, doc := range runDocs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range commandLines(string(raw)) {
			line = strings.ReplaceAll(line, `\|`, "|") // a | escaped in a table cell
			n, misses := goTestMisses(t, line, "run")
			checked += n
			for _, miss := range misses {
				t.Errorf("%s: %s", doc, miss)
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no documented go test pattern; is the extraction broken?")
	}
}

// helpFlag matches one flag of a command's -h listing: "  -name type".
var helpFlag = regexp.MustCompile(`(?m)^  (-[a-z][a-z0-9-]*)`)

// codeSpan matches an inline code span; codeFlag a flag named inside one,
// alone (`-slot`) or as part of a command line (`lcfd -flows 8`).
var (
	codeSpan = regexp.MustCompile("`([^`\n]+)`")
	codeFlag = regexp.MustCompile(`(?:^|[\s\[(/=])(-[a-z][a-z0-9-]*)`)
)

// TestFlagsDocumented builds both daemons and fails on any flag their -h
// output lists that README.md does not name in backticks, so a flag a
// refactor loses, renames or adds cannot go unnoticed.
func TestFlagsDocumented(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, span := range codeSpan.FindAllStringSubmatch(string(raw), -1) {
		for _, m := range codeFlag.FindAllStringSubmatch(span[1], -1) {
			documented[m[1]] = true
		}
	}
	help := helpFlags{dir: t.TempDir()}
	for _, cmd := range []string{"lcfd", "lcffab"} {
		for f := range help.of(t, cmd) {
			if !documented[f] {
				t.Errorf("%s registers %s, which README.md does not name in backticks", cmd, f)
			}
		}
	}
}

// flagDocs are the documents whose command lines a reader copies and
// runs. DESIGN.md and EXPERIMENTS.md are history and may show a flag
// that has since gone.
var flagDocs = []string{
	"README.md", "OBSERVABILITY.md",
	filepath.Join("results", "README.md"),
	filepath.Join(".claude", "skills", "verify", "SKILL.md"),
}

// TestDocumentedFlagsExist is TestFlagsDocumented's converse: every flag
// a command line in flagDocs passes to one of the repository's binaries
// — `lcfd -flows 8` in a code span, or a line of a fenced shell block,
// including `go run ./cmd/<x> …` — must be one that binary's -h lists,
// so a deleted or renamed flag takes its documented uses with it.
func TestDocumentedFlagsExist(t *testing.T) {
	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	binaries := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() {
			binaries[e.Name()] = true
		}
	}
	help := helpFlags{dir: t.TempDir()}
	checked := 0
	for _, doc := range flagDocs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range commandLines(string(raw)) {
			for _, use := range flagUses(line, binaries) {
				checked++
				if use.flag != "-h" && use.flag != "-help" && !help.of(t, use.cmd)[use.flag] {
					t.Errorf("%s runs %s %s, which %s -h does not list: %q", doc, use.cmd, use.flag, use.cmd, line)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no documented command line passing a flag; is the extraction broken?")
	}
}

// figureArg matches a -figure value on a command line, including a
// prose alternation such as `-figure flows|classes`.
var figureArg = regexp.MustCompile(`(?:^|\s)--?figure[ =]([A-Za-z0-9_|]+)`)

// figureList reads the figure names out of lcfsim's -figure usage:
// "what to regenerate: 12a, 12b, … (default "12a")".
var figureList = regexp.MustCompile(`what to regenerate: ([^(\n]+)`)

// TestDocumentedFiguresExist fails when a command line in flagDocs asks
// lcfsim for a -figure its usage does not list, so a figure deleted or
// folded into another takes its documented runs with it. It first checks
// that a planted run of a deleted figure is caught.
func TestDocumentedFiguresExist(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "lcfsim")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/lcfsim").CombinedOutput(); err != nil {
		t.Fatalf("building lcfsim: %v\n%s", err, out)
	}
	out, _ := exec.Command(bin, "-h").CombinedOutput()
	m := figureList.FindStringSubmatch(string(out))
	if m == nil {
		t.Fatalf("lcfsim -h lists no figures:\n%s", out)
	}
	known := map[string]bool{}
	for _, name := range strings.Split(m[1], ",") {
		known[strings.TrimSpace(name)] = true
	}
	if got := unknownFigures("`go run ./cmd/lcfsim -figure bursty -seed 42`", known); len(got) != 1 || got[0] != "bursty" {
		t.Fatalf("unknownFigures missed a planted stale figure: %v", got)
	}
	for _, doc := range flagDocs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range unknownFigures(string(raw), known) {
			t.Errorf("%s runs lcfsim -figure %s, which lcfsim's -figure usage does not list", doc, name)
		}
	}
}

// unknownFigures returns each -figure value a command line of doc passes
// that is not in known.
func unknownFigures(doc string, known map[string]bool) []string {
	var unknown []string
	for _, line := range commandLines(doc) {
		for _, m := range figureArg.FindAllStringSubmatch(line, -1) {
			for _, name := range strings.Split(m[1], "|") {
				if !known[name] {
					unknown = append(unknown, name)
				}
			}
		}
	}
	return unknown
}

// helpFlags builds binaries on demand and caches the flag set each one's
// -h output lists.
type helpFlags struct {
	dir  string
	seen map[string]map[string]bool
}

func (h *helpFlags) of(t *testing.T, cmd string) map[string]bool {
	t.Helper()
	if flags, ok := h.seen[cmd]; ok {
		return flags
	}
	bin := filepath.Join(h.dir, cmd)
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+cmd).CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", cmd, err, out)
	}
	out, _ := exec.Command(bin, "-h").CombinedOutput() // the flag package's usage, on stderr
	flags := map[string]bool{}
	for _, m := range helpFlag.FindAllStringSubmatch(string(out), -1) {
		flags[m[1]] = true
	}
	if len(flags) == 0 {
		t.Fatalf("%s -h lists no flags:\n%s", cmd, out)
	}
	if h.seen == nil {
		h.seen = map[string]map[string]bool{}
	}
	h.seen[cmd] = flags
	return flags
}

// commandLines returns the text a reader may run from a markdown
// document: every inline code span outside fenced blocks, and every
// line of a fenced sh/bash/shell block with its continuations joined.
func commandLines(doc string) []string {
	var lines, prose []string
	fence, shell, cont := false, false, ""
	for _, line := range strings.Split(doc, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") {
			fence = !fence
			info := strings.TrimPrefix(trimmed, "```")
			shell = fence && (info == "sh" || info == "bash" || info == "shell")
			continue
		}
		switch {
		case !fence:
			prose = append(prose, line)
		case shell && strings.HasSuffix(trimmed, "\\"):
			cont += strings.TrimSuffix(trimmed, "\\") + " "
		case shell:
			lines = append(lines, cont+trimmed)
			cont = ""
		}
	}
	for _, m := range proseSpan.FindAllStringSubmatch(strings.Join(prose, "\n"), -1) {
		lines = append(lines, strings.ReplaceAll(m[1], "\n", " "))
	}
	return lines
}

// proseSpan is a code span that may wrap onto the next line of prose.
var proseSpan = regexp.MustCompile("`([^`]+)`")

// flagUse is one flag a documented command line passes to a binary.
type flagUse struct{ cmd, flag string }

// flagUses finds each invocation of a binary in line — a word naming a
// cmd/ directory (optionally with a path: /tmp/v/lcfd), or go run
// ./cmd/<x> — and the flags passed to it, up to the end of that shell
// command (a pipe, list operator, redirect or comment). A "|" followed by
// another flag is prose alternation (`lcfsim -workers -1 | -speedup 0`),
// not a pipe.
func flagUses(line string, binaries map[string]bool) []flagUse {
	tok := strings.Fields(line)
	var uses []flagUse
	for k := 0; k < len(tok); k++ {
		cmd := ""
		switch name := tok[k][strings.LastIndex(tok[k], "/")+1:]; {
		case k >= 2 && tok[k-2] == "go" && tok[k-1] == "run" && strings.HasPrefix(tok[k], "./cmd/"):
			cmd = strings.TrimPrefix(tok[k], "./cmd/")
		case !strings.Contains(tok[k], "cmd/") && binaries[name]:
			cmd = name
		}
		if !binaries[cmd] {
			continue
		}
		for k++; k < len(tok); k++ {
			a := tok[k]
			if a == "|" && k+1 < len(tok) && strings.HasPrefix(tok[k+1], "-") {
				continue
			}
			if a == "|" || a == "||" || a == "&&" || a == ";" || a == "&" || strings.HasPrefix(a, "#") || strings.ContainsAny(a, "<>") {
				break
			}
			if m := argFlag.FindStringSubmatch(a); m != nil {
				uses = append(uses, flagUse{cmd, "-" + m[1]})
			}
		}
	}
	return uses
}

// argFlag matches a flag argument, -name, --name or -name=value; a
// negative number is a value, not a flag.
var argFlag = regexp.MustCompile(`^--?([a-z][a-z0-9-]*)(?:=.*)?$`)

// linkTargets extracts link targets outside fenced code blocks (YAML and
// shell examples legitimately contain [x](y)-shaped text).
func linkTargets(doc string) []string {
	var targets []string
	inFence := false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
			targets = append(targets, m[1])
		}
	}
	return targets
}
