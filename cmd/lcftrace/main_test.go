package main

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestRenderTimeline renders a JSONL fixture holding one line of every
// event kind — the examples of OBSERVABILITY.md's event schema — plus a
// kind this build does not emit: the "spec" line older lcfd builds
// recorded. ReadJSONL must keep accepting such a line (its unknown fields
// are ignored), the timeline must name it instead of printing an empty
// slot decision, and the footer must count slot decisions apart from
// everything else.
func TestRenderTimeline(t *testing.T) {
	rows := []struct {
		name, jsonl, want string
	}{
		{"header", "",
			"slot     requests  matched grants (in→out[rule choices])"},
		{"slot decision",
			`{"slot":7,"requested":9,"matched":3,"grants":[{"in":0,"out":3,"rule":"diagonal","choices":2},{"in":2,"out":0,"rule":"lcf","choices":1},{"in":3,"out":1,"rule":"unattributed","choices":-1}]}`,
			"7        9         3       0→3[diag c2] 2→0[lcf c1] 3→1"},
		{"fault",
			`{"slot":41,"requested":0,"matched":0,"kind":"fault","port":3,"dir":"output","state":"down"}`,
			"41       fault: port 3 output link down"},
		{"flow",
			`{"slot":12,"requested":0,"matched":0,"kind":"flow","flow":81452,"port":3,"disp":"new"}`,
			"12       flow: 0x13e2c new → port 3"},
		{"class",
			`{"slot":58,"requested":0,"matched":0,"kind":"class","class":0,"port":5,"latency":31}`,
			"58       class: c0 → port 5 SLO violated (latency 31 slots)"},
		{"unrecognised kind",
			`{"slot":93,"requested":0,"matched":0,"kind":"spec","hits":5,"misses":1,"repairs":1}`,
			"93       spec: (unrecognised event)"},
		{"footer", "",
			"1 slots drained, 4 other events"},
	}
	var fixture strings.Builder
	for _, r := range rows {
		fixture.WriteString(r.jsonl + "\n")
	}
	evs, err := obs.ReadJSONL(strings.NewReader(fixture.String()))
	if err != nil || len(evs) != len(rows)-2 {
		t.Fatalf("ReadJSONL = %d events, %v; want %d, nil", len(evs), err, len(rows)-2)
	}
	var out strings.Builder
	renderTimeline(&out, evs)
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != len(rows) {
		t.Fatalf("rendered %d lines, want %d:\n%s", len(lines), len(rows), out.String())
	}
	for k, r := range rows {
		if lines[k] != r.want {
			t.Errorf("%s line\n got %q\nwant %q", r.name, lines[k], r.want)
		}
	}
}
