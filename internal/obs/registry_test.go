package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// testRegistry builds a registry with one metric of every kind and fully
// deterministic values, so the rendered exposition can be golden-tested.
func testRegistry() *Registry {
	r := NewRegistry()
	r.Counter("lcf_test_admitted_total", "Frames admitted.", func() int64 { return 12345 })
	r.Gauge("lcf_test_backlog_frames", "Frames queued.", func() float64 { return 37 })
	r.CounterVec("lcf_test_port_delivered_total", "Per-port deliveries.", func() []Sample {
		return []Sample{
			{Labels: Labels("output", "0"), Value: 10},
			{Labels: Labels("output", "1"), Value: 20},
		}
	})
	r.GaugeVec("lcf_test_info", "Static build info.", func() []Sample {
		return []Sample{{Labels: Labels("scheduler", "lcf_central_rr", "n", "16"), Value: 1}}
	})
	h := metrics.NewLiveHistogram([]float64{1, 2, 4})
	for _, x := range []float64{0.5, 1, 1.5, 3, 9} { // 2 in ≤1, 1 in ≤2, 1 in ≤4, 1 overflow
		h.Observe(x)
	}
	r.Histogram("lcf_test_depth", "A depth histogram.", h.Snapshot)
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := testRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "exposition.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -update` to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden file.\nA metric rename must be deliberate: update OBSERVABILITY.md and re-run with -update.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

func TestParsePrometheusRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := testRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := ParsePrometheus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{
		"lcf_test_admitted_total":                          12345,
		"lcf_test_backlog_frames":                          37,
		`lcf_test_port_delivered_total{output="1"}`:        20,
		`lcf_test_info{scheduler="lcf_central_rr",n="16"}`: 1,
		`lcf_test_depth_bucket{le="2"}`:                    3, // cumulative: 2 + 1
		`lcf_test_depth_bucket{le="+Inf"}`:                 5,
		"lcf_test_depth_count":                             5,
		"lcf_test_depth_sum":                               14, // per-observation truncation: 0+1+1+3+9
	} {
		got, ok := s.Value(key)
		if !ok {
			t.Errorf("scrape is missing %s", key)
		} else if got != want {
			t.Errorf("%s = %g, want %g", key, got, want)
		}
	}
}

func TestRegistryNamesAndDuplicates(t *testing.T) {
	r := testRegistry()
	names := r.Names()
	want := []string{
		"lcf_test_admitted_total", "lcf_test_backlog_frames",
		"lcf_test_port_delivered_total", "lcf_test_info", "lcf_test_depth",
	}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names()[%d] = %s, want %s", i, names[i], want[i])
		}
	}
	if h := r.Help("lcf_test_depth"); h != "A depth histogram." {
		t.Errorf("Help = %q", h)
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Counter("lcf_test_admitted_total", "dup", func() int64 { return 0 })
}

func TestRegistryRejectsBadNames(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid metric name did not panic")
		}
	}()
	NewRegistry().Counter("bad name!", "x", func() int64 { return 0 })
}

func TestLabelsEscaping(t *testing.T) {
	got := Labels("k", `va"l\ue`+"\n")
	want := `k="va\"l\\ue\n"`
	if got != want {
		t.Errorf("Labels = %s, want %s", got, want)
	}
}

func TestHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("lcf_x_total", "line one\nline two \\ backslash", func() int64 { return 1 })
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `# HELP lcf_x_total line one\nline two \\ backslash`) {
		t.Errorf("help not escaped:\n%s", buf.String())
	}
}

// blockingWriter accepts nothing until release is closed, like the socket
// of a client that stopped reading; entered is closed on the first write.
type blockingWriter struct {
	entered, release chan struct{}
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	close(w.entered)
	<-w.release
	return len(p), nil
}

// TestScrapeNotHeldByBlockedWriter: a scrape whose writer blocks holds
// no lock, so a second scrape runs its hooks and completes meanwhile.
func TestScrapeNotHeldByBlockedWriter(t *testing.T) {
	r := testRegistry()
	hooks := 0
	r.OnScrape(func() { hooks++ })
	stuck := &blockingWriter{entered: make(chan struct{}), release: make(chan struct{})}
	done := make(chan error)
	go func() { done <- r.WritePrometheus(stuck) }()
	<-stuck.entered
	var second bytes.Buffer
	finished := make(chan error)
	go func() { finished <- r.WritePrometheus(&second) }()
	select {
	case err := <-finished:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a scrape waited on another scrape's blocked writer")
	}
	close(stuck.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if hooks != 2 {
		t.Fatalf("hooks ran %d times for two scrapes", hooks)
	}
	if !strings.Contains(second.String(), "lcf_test_admitted_total 12345") {
		t.Fatalf("second scrape rendered:\n%s", second.String())
	}
}
