package switchcore

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the Names() golden file")

// TestDatapathNamesGolden locks the public datapath-name list, exactly
// like the scheduler registry's golden test: adding, renaming or
// removing a datapath must come with a deliberate update of
// testdata/names.golden (go test ./internal/switchcore -run
// TestDatapathNamesGolden -update), because these names are public API —
// lcfd's -datapath flag, lcf.SimConfig.Datapath, engine configs and
// EXPERIMENTS.md all refer to them.
func TestDatapathNamesGolden(t *testing.T) {
	goldenPath := filepath.Join("testdata", "names.golden")
	got := strings.Join(Names(), "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create it): %v", err)
	}
	if got != string(want) {
		t.Errorf("datapath name list drifted from %s:\n got: %v\nwant: %v\n"+
			"if the change is intentional, regenerate with: go test ./internal/switchcore -run TestDatapathNamesGolden -update",
			goldenPath, Names(), strings.Fields(string(want)))
	}
}

// TestNewDatapathRejectsUnknown pins the self-explanatory error contract
// and that every known name builds.
func TestNewDatapathRejectsUnknown(t *testing.T) {
	if _, err := NewDatapath[int]("xbar", 4, 8, 0); err == nil {
		t.Fatal("NewDatapath accepted an unknown datapath name")
	} else if !strings.Contains(err.Error(), "cicq") || !strings.Contains(err.Error(), "voq") {
		t.Fatalf("error does not enumerate known names: %v", err)
	}
	for _, name := range append(Names(), "") {
		dp, err := NewDatapath[int](name, 4, 8, 0)
		if err != nil || dp == nil {
			t.Fatalf("NewDatapath(%q) = %v, %v", name, dp, err)
		}
		if !Known(name) {
			t.Fatalf("Known(%q) = false for a constructible datapath", name)
		}
	}
}
