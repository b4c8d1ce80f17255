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
		{"flows+classes", func(c *Config) { flows(c); classes(c) }}, // four request shapes, one door
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
		// Every composition of Offer's optional stages carried traffic —
		// plain, steered, classified, steered and classified — and the
		// ledgers agree on who was what: the class tier admitted exactly
		// the two classified shapes. Run held the steered ones to flow
		// stickiness and the flow ledger, and every classified frame to
		// the class ledger, in this same run.
		for sh, admitted := range rep.Shapes {
			if admitted == 0 {
				t.Errorf("no %s frame was admitted: %+v", shape(sh), rep)
			}
		}
		if got := rep.Shapes[classed] + rep.Shapes[steered|classed]; got != rep.ClassAdmitted {
			t.Errorf("classified shapes admitted %d frames, class tier %d", got, rep.ClassAdmitted)
		}
		if got := rep.Shapes[0] + rep.Shapes[steered] + rep.ClassAdmitted; got != rep.Admitted {
			t.Errorf("shapes admitted %d frames, engine %d", got, rep.Admitted)
		}
	} else if cfg.Classes != "" && rep.ClassAdmitted != rep.Admitted {
		t.Errorf("every request was classified yet the class tier admitted %d of %d", rep.ClassAdmitted, rep.Admitted)
	}
}

// TestComposedChaos10k is the acceptance storm of the composition the
// tiers could not reach while each had its own door: every frame steered
// and classified, so each is pinned to its flow's port, ranked in that
// port's PIFO and held to the flow ledger, flow stickiness and the class
// ledger at once — and, with no unclassified frame in the run, to Σ class
// admitted == engine admitted (Run checks it at shutdown).
func TestComposedChaos10k(t *testing.T) {
	want := [2]Report{ // indexed by rt.FaultPolicy, recorded when the composition first ran
		{Slots: 10000, Admitted: 25444, Delivered: 25387, Consumed: 25387, Rejected: 22616, Backpressured: 52, Undrained: 57, MaxBacklog: 237, FlowsInserted: 13154, FlowsEvicted: 12740, FlowRejections: 3, ClassAdmitted: 25444, ClassViolations: 6452, Flaps: 552, Stucks: 240, Kills: 126},
		{Slots: 10000, Admitted: 31881, Delivered: 26547, Consumed: 26547, Dropped: 5304, Rejected: 15626, Backpressured: 605, Undrained: 30, MaxBacklog: 201, FlowsInserted: 13154, FlowsEvicted: 12740, FlowsRebalanced: 3807, FlowRejections: 3, ClassAdmitted: 31881, ClassDropped: 5304, ClassViolations: 4153, Flaps: 552, Stucks: 240, Kills: 126},
	}
	for _, policy := range []rt.FaultPolicy{rt.HoldStranded, rt.DropStranded} {
		t.Run(policy.String(), func(t *testing.T) {
			cfg := Config{
				N: 8, Slots: 10_000, Seed: 0xC0FFEE, Policy: policy,
				Flows: 512, Classes: stormClasses, Mix: []float64{4, 2, 1}, ComposedOnly: true,
			}
			rep := pinned(t, cfg, want[policy])
			exercised(t, cfg, rep)
			if rep.ClassAdmitted != rep.Admitted {
				t.Errorf("every request was classified yet the class tier admitted %d of %d", rep.ClassAdmitted, rep.Admitted)
			}
		})
	}
}
