package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"strconv"
	"strings"
	"sync"

	"repro/internal/metrics"
)

// MetricType is the Prometheus metric type of a registered metric.
type MetricType int

// Metric types, rendered verbatim in the # TYPE line.
const (
	TypeCounter MetricType = iota
	TypeGauge
	TypeHistogram
)

// String returns the exposition-format type name.
func (t MetricType) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Sample is one labelled value of a vector metric. Labels is the rendered
// label pair list without braces (`input="3"`), built with Labels; empty
// means an unlabelled sample.
type Sample struct {
	Labels string
	Value  float64
}

// Labels renders key/value pairs into a Sample label set. Values are
// escaped per the exposition format (backslash, double quote, newline).
// It panics on an odd number of arguments or an invalid label name: label
// sets are assembled from compile-time constants, so a bad one is a
// programming error.
func Labels(kv ...string) string {
	if len(kv)%2 != 0 {
		panic("obs: Labels needs key/value pairs")
	}
	var b strings.Builder
	for i := 0; i < len(kv); i += 2 {
		if !labelNameRE.MatchString(kv[i]) {
			panic(fmt.Sprintf("obs: invalid label name %q", kv[i]))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(kv[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// HistogramSample is one labelled member of a histogram vector family:
// the rendered label pair list (built with Labels) shared by every
// series the member emits, plus its snapshot.
type HistogramSample struct {
	Labels   string
	Snapshot metrics.HistogramSnapshot
}

// metric is one registered metric family: a name, help text, type, and a
// collect function invoked at exposition time (the cold path — collection
// may allocate freely).
type metric struct {
	name, help   string
	typ          MetricType
	collect      func() []Sample                  // counter/gauge families
	histogram    func() metrics.HistogramSnapshot // histogram families
	histogramVec func() []HistogramSample         // labelled histogram families
}

// Registry is an ordered set of metric families rendered on demand. It is
// not safe for concurrent registration; register everything at startup,
// then WritePrometheus may run concurrently with the hot path because the
// collect closures only read atomic counters (or what an OnScrape hook
// gathered). Scrapes themselves run one at a time.
type Registry struct {
	metrics []metric
	byName  map[string]struct{}
	hooks   []func()
	scrape  sync.Mutex // one WritePrometheus at a time, hooks included
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]struct{})}
}

func (r *Registry) add(m metric) {
	if !metricNameRE.MatchString(m.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", m.name))
	}
	if _, dup := r.byName[m.name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", m.name))
	}
	r.byName[m.name] = struct{}{}
	r.metrics = append(r.metrics, m)
}

// OnScrape registers fn to run at the start of every WritePrometheus,
// before any family is collected and under the same one-at-a-time lock:
// the place to gather, once per scrape, state that several families
// read — a fold over locks that the hot path takes too.
func (r *Registry) OnScrape(fn func()) { r.hooks = append(r.hooks, fn) }

// Counter registers a monotonically increasing value. By Prometheus
// convention the name should end in _total.
func (r *Registry) Counter(name, help string, fn func() int64) {
	r.add(metric{name: name, help: help, typ: TypeCounter, collect: func() []Sample {
		return []Sample{{Value: float64(fn())}}
	}})
}

// Gauge registers an instantaneous value.
func (r *Registry) Gauge(name, help string, fn func() float64) {
	r.add(metric{name: name, help: help, typ: TypeGauge, collect: func() []Sample {
		return []Sample{{Value: fn()}}
	}})
}

// CounterVec registers a labelled counter family; fn returns one Sample
// per label set.
func (r *Registry) CounterVec(name, help string, fn func() []Sample) {
	r.add(metric{name: name, help: help, typ: TypeCounter, collect: fn})
}

// GaugeVec registers a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, fn func() []Sample) {
	r.add(metric{name: name, help: help, typ: TypeGauge, collect: fn})
}

// Histogram registers a histogram family rendered as cumulative
// name_bucket{le="..."} series plus name_sum and name_count, from a
// LiveHistogram snapshot.
func (r *Registry) Histogram(name, help string, fn func() metrics.HistogramSnapshot) {
	r.add(metric{name: name, help: help, typ: TypeHistogram, histogram: fn})
}

// HistogramVec registers a labelled histogram family; fn returns one
// HistogramSample per label set. Each member renders the same
// _bucket/_sum/_count series as Histogram, with the member's labels on
// every line (joined with le on the bucket series).
func (r *Registry) HistogramVec(name, help string, fn func() []HistogramSample) {
	r.add(metric{name: name, help: help, typ: TypeHistogram, histogramVec: fn})
}

// Names returns every registered family name, in registration order.
// Histogram families report their base name (the _bucket/_sum/_count
// series derive from it).
func (r *Registry) Names() []string {
	out := make([]string, len(r.metrics))
	for i, m := range r.metrics {
		out[i] = m.name
	}
	return out
}

// Help returns the registered help string for name ("" if unknown).
func (r *Registry) Help(name string) string {
	for _, m := range r.metrics {
		if m.name == name {
			return m.help
		}
	}
	return ""
}

// formatValue renders a float the way Prometheus clients do: shortest
// round-trip representation, +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// ContentTypePrometheus is the Content-Type of the text exposition format
// this package writes.
const ContentTypePrometheus = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every registered family in the Prometheus text
// exposition format 0.0.4, in registration order. The hooks run and the
// families are rendered under the scrape lock; the text is written to w
// after it is released, so a slow reader of w holds up no other scrape.
func (r *Registry) WritePrometheus(w io.Writer) error {
	_, err := io.WriteString(w, r.render())
	return err
}

// render runs the OnScrape hooks and renders every family, one scrape at
// a time.
func (r *Registry) render() string {
	r.scrape.Lock()
	defer r.scrape.Unlock()
	for _, fn := range r.hooks {
		fn()
	}
	var b strings.Builder
	for _, m := range r.metrics {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", m.name, escapeHelp(m.help), m.name, m.typ)
		if m.histogramVec != nil {
			for _, hs := range m.histogramVec() {
				writeLabelledHistogram(&b, m.name, hs.Labels, hs.Snapshot)
			}
		} else if m.typ == TypeHistogram {
			writeHistogram(&b, m.name, m.histogram())
		} else {
			for _, s := range m.collect() {
				if s.Labels != "" {
					fmt.Fprintf(&b, "%s{%s} %s\n", m.name, s.Labels, formatValue(s.Value))
				} else {
					fmt.Fprintf(&b, "%s %s\n", m.name, formatValue(s.Value))
				}
			}
		}
	}
	return b.String()
}

// writeHistogram renders one histogram family. LiveHistogram buckets are
// per-bucket counts with an explicit overflow; Prometheus buckets are
// cumulative with an implicit +Inf, so the counts are summed on the way
// out and the overflow lands in +Inf only.
func writeHistogram(b *strings.Builder, name string, s metrics.HistogramSnapshot) {
	var cum int64
	for k, bound := range s.Bounds {
		cum += s.Counts[k]
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, formatValue(bound), cum)
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, s.Total)
	fmt.Fprintf(b, "%s_sum %s\n", name, formatValue(s.Sum))
	fmt.Fprintf(b, "%s_count %d\n", name, s.Total)
}

// writeLabelledHistogram renders one member of a histogram vector: the
// same cumulative-bucket translation as writeHistogram, with the
// member's label set prefixed onto every series (and joined with le on
// the bucket lines).
func writeLabelledHistogram(b *strings.Builder, name, labels string, s metrics.HistogramSnapshot) {
	var cum int64
	for k, bound := range s.Bounds {
		cum += s.Counts[k]
		fmt.Fprintf(b, "%s_bucket{%s,le=%q} %d\n", name, labels, formatValue(bound), cum)
	}
	fmt.Fprintf(b, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, labels, s.Total)
	fmt.Fprintf(b, "%s_sum{%s} %s\n", name, labels, formatValue(s.Sum))
	fmt.Fprintf(b, "%s_count{%s} %d\n", name, labels, s.Total)
}
