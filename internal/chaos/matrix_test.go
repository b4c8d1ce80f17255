package chaos

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/datapath"
	rt "repro/internal/runtime"
)

// TestChaosMatrix is DESIGN.md §16's support matrix as a test: the cross
// product of every tier selector Config mirrors from runtime.Config —
// datapath × front tiers × slot loop × sharding × fault policy, 64 cells.
// Each cell is either stormed under the full invariant set (Run checks
// every invariant that applies on every run) or refused by runtime.New
// with an error that wraps runtime.ErrUnsupported; no cell is left
// unpinned, and a cell that changes sides fails here until the table in
// DESIGN.md changes with it.
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
	loops := []axis{
		{"inline", func(c *Config) {}},
		{"pipelined", func(c *Config) { c.Pipeline = true }},
	}
	// Sharded cells are shorter: four pool handoffs a slot make them the
	// slow ones under -race.
	pools := []axis{
		{"unsharded", func(c *Config) {}},
		{"shards4", func(c *Config) { c.Shards, c.Slots = 4, 1_200 }},
	}
	policies := []axis{
		{"hold", func(c *Config) { c.Policy = rt.HoldStranded }},
		{"drop", func(c *Config) { c.Policy = rt.DropStranded }},
	}

	cells := 0
	for _, dp := range datapaths {
		for _, tier := range tiers {
			for _, loop := range loops {
				for _, pool := range pools {
					for _, policy := range policies {
						cfg := Config{N: 8, Slots: 2_500, Seed: 0x17}
						name := make([]string, 0, 5)
						for _, a := range []axis{dp, tier, loop, pool, policy} {
							a.set(&cfg)
							name = append(name, a.name)
						}
						cells++
						t.Run(strings.Join(name, "/"), func(t *testing.T) { matrixCell(t, cfg) })
					}
				}
			}
		}
	}
	if cells != 64 {
		t.Fatalf("matrix has %d cells, DESIGN.md §16 tabulates 64", cells)
	}
}

func matrixCell(t *testing.T, cfg Config) {
	// The one refused region: CICQ's per-input dispatch arbiter decides
	// while it snapshots, so there is no pure matching to speculate and
	// no disjoint rows to shard.
	if cfg.Datapath == datapath.CICQ && (cfg.Pipeline || cfg.Shards > 1) {
		if rep, err := Run(cfg); !errors.Is(err, rt.ErrUnsupported) || rep != nil {
			t.Fatalf("Run = %+v, %v; want a refusal wrapping runtime.ErrUnsupported", rep, err)
		}
		return
	}
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
