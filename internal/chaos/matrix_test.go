package chaos

import (
	"strings"
	"testing"

	"repro/internal/datapath"
	rt "repro/internal/runtime"
)

// TestChaosMatrix is DESIGN.md §16's support matrix as a test: the cross
// product of every tier selector Config mirrors from runtime.Config —
// datapath × front tiers × fault policy, 16 cells, each stormed under the
// full invariant set (Run checks every invariant that applies on every
// run). No cell is refused or left unpinned.
func TestChaosMatrix(t *testing.T) {
	type axis struct {
		name string
		set  func(*Config)
	}
	datapaths := []axis{
		{"voq", func(c *Config) {}},
		{"cicq", func(c *Config) { c.Datapath = datapath.CICQ }},
	}
	flows := func(c *Config) { c.Flows = 256 }
	classes := func(c *Config) { c.Classes, c.Mix = stormClasses, []float64{4, 2, 1} }
	tiers := []axis{
		{"plain", func(c *Config) {}},
		{"flows", flows},
		{"classes", classes},
		{"flows+classes", func(c *Config) { flows(c); classes(c) }}, // all three doors
	}
	policies := []axis{
		{"hold", func(c *Config) { c.Policy = rt.HoldStranded }},
		{"drop", func(c *Config) { c.Policy = rt.DropStranded }},
	}

	cells := 0
	for _, dp := range datapaths {
		for _, tier := range tiers {
			for _, policy := range policies {
				cfg := Config{N: 8, Slots: 2_500, Seed: 0x17}
				name := make([]string, 0, 3)
				for _, a := range []axis{dp, tier, policy} {
					a.set(&cfg)
					name = append(name, a.name)
				}
				cells++
				t.Run(strings.Join(name, "/"), func(t *testing.T) { matrixCell(t, cfg) })
			}
		}
	}
	if cells != 16 {
		t.Fatalf("matrix has %d cells, DESIGN.md §16 tabulates 16", cells)
	}
}

func matrixCell(t *testing.T, cfg Config) {
	rep := storm(t, cfg)
	exercised(t, cfg, rep)
	if cfg.Flows > 0 && cfg.Classes != "" {
		// All three doors carried traffic: some frames were steered, some
		// classified, and the rest — neither — came through plain Admit.
		if rep.FlowsInserted == 0 || rep.ClassAdmitted == 0 || rep.ClassAdmitted >= rep.Admitted {
			t.Errorf("a door stayed shut: %+v", rep)
		}
	} else if cfg.Classes != "" && rep.ClassAdmitted != rep.Admitted {
		t.Errorf("class door is the only door yet admitted %d of %d", rep.ClassAdmitted, rep.Admitted)
	}
}
