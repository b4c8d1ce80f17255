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

// cmdRef matches a command path in prose, code spans or shell lines:
// cmd/<x> or ./cmd/<x>, not a longer path that merely ends in one.
var cmdRef = regexp.MustCompile(`(?:^|[^\w/.])(?:\./)?cmd/([a-z][a-z0-9_]*)`)

// runDocs are the documents a reader follows to run or find something.
// ROADMAP.md and CHANGES.md are history and may name what is gone.
var runDocs = []string{
	"README.md", "DESIGN.md", "EXPERIMENTS.md", "OBSERVABILITY.md",
	filepath.Join("results", "README.md"),
	filepath.Join(".claude", "skills", "verify", "SKILL.md"),
}

// TestDocsNameLiveCommands fails when a document a reader follows to run
// something names a cmd/<x> that has no directory — a binary deleted or
// folded into another must take its mentions with it.
func TestDocsNameLiveCommands(t *testing.T) {
	for _, doc := range runDocs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, m := range cmdRef.FindAllStringSubmatch(string(raw), -1) {
			if seen[m[1]] {
				continue
			}
			seen[m[1]] = true
			if fi, err := os.Stat(filepath.Join("cmd", m[1])); err != nil || !fi.IsDir() {
				t.Errorf("%s names cmd/%s, which has no directory", doc, m[1])
			}
		}
	}
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
	dir := t.TempDir()
	for _, cmd := range []string{"lcfd", "lcffab"} {
		bin := filepath.Join(dir, cmd)
		if out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+cmd).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", cmd, err, out)
		}
		help, _ := exec.Command(bin, "-h").CombinedOutput() // the flag package's usage, on stderr
		flags := helpFlag.FindAllStringSubmatch(string(help), -1)
		if len(flags) == 0 {
			t.Fatalf("%s -h lists no flags:\n%s", cmd, help)
		}
		for _, f := range flags {
			if !documented[f[1]] {
				t.Errorf("%s registers %s, which README.md does not name in backticks", cmd, f[1])
			}
		}
	}
}

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
