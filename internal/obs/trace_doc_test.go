package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/sched"
)

// TestTraceSchemaDocumented keeps the trace records and OBSERVABILITY.md's
// event schema tables in lockstep, the trace ring's mirror of
// TestMetricsDocumented: it emits one record of every kind through the
// public emitters, drains them, writes them as JSONL, and fails when a
// JSON key or a kind value the ring produces has no row in the "Slot-event
// trace" tables, or when a documented kind is never produced.
func TestTraceSchemaDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	section := string(doc)
	start := strings.Index(section, "\n## Slot-event trace")
	if start < 0 {
		t.Fatal("OBSERVABILITY.md has no \"## Slot-event trace\" section")
	}
	section = section[start+1:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	ticked := regexp.MustCompile("`([^`]+)`")
	quoted := regexp.MustCompile(`"([a-z]+)"`)
	fields, kinds := map[string]bool{}, map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 || !strings.HasPrefix(line, "| `") {
			continue
		}
		for _, m := range ticked.FindAllStringSubmatch(cells[1], -1) {
			fields[m[1]] = true
			if m[1] == "kind" {
				for _, k := range quoted.FindAllStringSubmatch(cells[2], -1) {
					kinds[k[1]] = true
				}
			}
		}
	}
	if len(fields) == 0 || len(kinds) == 0 {
		t.Fatalf("no schema tables found (fields %v, kinds %v)", fields, kinds)
	}

	tr := NewTracer(4, 8)
	tr.Enable()
	g := sched.NewGrantSet(4)
	g.Set(1, 2, sched.RuleLCF, 1)
	tr.EmitGrants(1, 3, g)
	tr.EmitFault(2, 3, DirOutput, false)
	tr.EmitFlow(3, 0xF1, 2, FlowNew)
	tr.EmitClass(4, 1, 2, 9)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr.Drain()); err != nil {
		t.Fatal(err)
	}
	produced := map[string]bool{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var rec map[string]json.RawMessage
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		for key, raw := range rec {
			switch key {
			case "grants":
				var grants []map[string]json.RawMessage
				if err := json.Unmarshal(raw, &grants); err != nil {
					t.Fatal(err)
				}
				for _, gr := range grants {
					for sub := range gr {
						if name := "grants[]." + sub; !fields[name] {
							t.Errorf("trace key %s is not documented in OBSERVABILITY.md", name)
						}
					}
				}
				continue
			case "kind":
				var kind string
				if err := json.Unmarshal(raw, &kind); err != nil {
					t.Fatal(err)
				}
				produced[kind] = true
				if !kinds[kind] {
					t.Errorf("trace kind %q is not documented in OBSERVABILITY.md", kind)
				}
			}
			if !fields[key] {
				t.Errorf("trace key %s is not documented in OBSERVABILITY.md", key)
			}
		}
	}
	for kind := range kinds {
		if !produced[kind] {
			t.Errorf("OBSERVABILITY.md documents trace kind %q, which no emitter produces", kind)
		}
	}
}
