package chaos

import (
	"testing"

	cf "repro/internal/closfabric"
	rt "repro/internal/runtime"
)

// pinnedFabric is pinned's fabric twin: run cfg, persist a replayable
// artifact on any invariant violation, and compare the Report field for
// field with want — captured at the commit before the fabric links
// stopped round-tripping a wire codec (Reordered, counted later, was
// added to each row without moving any other field), so a refactor that
// shifts every run is caught, not only one that makes two runs disagree.
// Regenerate a constant only for a change that means to move it.
func pinnedFabric(t *testing.T, cfg FabricConfig, want FabricReport) *FabricReport {
	t.Helper()
	rep, err := RunFabric(cfg)
	if err != nil {
		reportSeed(t, cfg.Engine.Seed, cfg, err)
	}
	if *rep != want {
		t.Fatalf("%+v\nreport moved:\n got  %+v\n want %+v", cfg, *rep, want)
	}
	return rep
}

// selects are the two middle-stage routing policies every fabric table
// row is stormed under, in the order the tables index them.
var selects = [2]cf.MiddleSelect{cf.SelectRoundRobin, cf.SelectLeastBacklogged}

// fabric10k is the acceptance table, indexed [select][policy].
var fabric10k = [2][2]FabricReport{
	{
		{Slots: 10000, Injected: 47601, Delivered: 47601, Backpressured: 188, LinkNacks: 21118, Reordered: 1995, MaxResident: 148, Kills: 79},
		{Slots: 10000, Injected: 47601, Delivered: 47191, Dropped: 410, Backpressured: 188, LinkNacks: 144, Reordered: 1539, MaxResident: 115, Kills: 79},
	},
	{
		{Slots: 10000, Injected: 47604, Delivered: 47604, Backpressured: 185, LinkNacks: 22231, Reordered: 2199, MaxResident: 137, Kills: 79},
		{Slots: 10000, Injected: 47604, Delivered: 47257, Dropped: 347, Backpressured: 185, LinkNacks: 126, Reordered: 1854, MaxResident: 115, Kills: 79},
	},
}

// TestFabricChaosMiddleKill10k is the fabric acceptance run: 10k slots of
// uniform traffic against a C(4,2,4) fabric while whole middle-stage
// switches are killed and revived on a seeded schedule, under both
// stranded-frame policies and both routing policies. Conservation
// (injected == delivered + dropped + resident) is audited inside
// Fabric.Tick after every slot; a returned error is an invariant
// violation.
func TestFabricChaosMiddleKill10k(t *testing.T) {
	for _, policy := range []rt.FaultPolicy{rt.HoldStranded, rt.DropStranded} {
		t.Run(policy.String(), func(t *testing.T) {
			for s, sel := range selects {
				t.Run(sel.String(), func(t *testing.T) {
					cfg := FabricConfig{
						Config:   cf.Config{M: 4, K: 2, R: 4, Engine: rt.Spec{Seed: 0xFAB, FaultPolicy: policy}, Select: sel},
						Slots:    10_000,
						KillRate: 0.01,
						MeanDead: 150,
					}
					rep := pinnedFabric(t, cfg, fabric10k[s][policy])
					// What a regenerated golden must still have.
					if rep.Kills == 0 || rep.Delivered == 0 {
						t.Fatalf("fault schedule killed no middle switch or nothing delivered: %+v", rep)
					}
					if policy == rt.HoldStranded && rep.Dropped != 0 {
						t.Fatalf("hold policy dropped %d frames: %+v", rep.Dropped, rep)
					}
				})
			}
		})
	}
}

// fabricSeeds is the seed fan-out table, indexed [seed-1][select].
var fabricSeeds = [4][2]FabricReport{
	{
		{Slots: 2000, Injected: 6996, Delivered: 6866, Dropped: 130, Backpressured: 125, LinkNacks: 46, Reordered: 485, MaxResident: 96, Kills: 25},
		{Slots: 2000, Injected: 6986, Delivered: 6867, Dropped: 119, Backpressured: 135, LinkNacks: 41, Reordered: 443, MaxResident: 91, Kills: 25},
	},
	{
		{Slots: 2000, Injected: 7138, Delivered: 7138, Backpressured: 24, LinkNacks: 2602, Reordered: 546, MaxResident: 90, Kills: 26},
		{Slots: 2000, Injected: 7138, Delivered: 7138, Backpressured: 24, LinkNacks: 1854, Reordered: 506, MaxResident: 91, Kills: 26},
	},
	{
		{Slots: 2000, Injected: 7143, Delivered: 7051, Dropped: 92, Backpressured: 16, LinkNacks: 42, Reordered: 287, MaxResident: 78, Kills: 29},
		{Slots: 2000, Injected: 7143, Delivered: 7015, Dropped: 128, Backpressured: 16, LinkNacks: 52, Reordered: 321, MaxResident: 80, Kills: 29},
	},
	{
		{Slots: 2000, Injected: 7060, Delivered: 7060, Backpressured: 71, LinkNacks: 3377, Reordered: 646, MaxResident: 137, Kills: 36},
		{Slots: 2000, Injected: 7068, Delivered: 7068, Backpressured: 63, LinkNacks: 4029, Reordered: 556, MaxResident: 131, Kills: 36},
	},
}

// TestFabricChaosSeeds fans a handful of seeds across both routing
// policies at a smaller slot count — cheap coverage against schedules the
// fixed acceptance seed does not produce.
func TestFabricChaosSeeds(t *testing.T) {
	for k, want := range fabricSeeds {
		seed := uint64(k + 1)
		for s, sel := range selects {
			pinnedFabric(t, FabricConfig{
				Config:   cf.Config{M: 3, K: 2, R: 3, Engine: rt.Spec{Seed: seed, FaultPolicy: rt.FaultPolicy(seed % 2)}, Select: sel},
				Slots:    2_000,
				KillRate: 0.02,
				MeanDead: 80,
			}, want[s])
		}
	}
}

// TestFabricChaosDeterminism replays one seed twice against its golden —
// the property that makes a persisted failing seed replayable.
func TestFabricChaosDeterminism(t *testing.T) {
	cfg := FabricConfig{Config: cf.Config{M: 3, K: 2, R: 3, Engine: rt.Spec{Seed: 7}}, Slots: 3_000, KillRate: 0.02}
	want := FabricReport{Slots: 3000, Injected: 10474, Delivered: 10474, Backpressured: 271, LinkNacks: 6662, Reordered: 1108, MaxResident: 114, Kills: 29}
	pinnedFabric(t, cfg, want)
	pinnedFabric(t, cfg, want)
}

// TestFabricChaosSinglePathKeepsOrder storms a C(1,1,4) fabric: with one
// middle every (src, dst) pair has one path of FIFO queues and links, so
// no frame can overtake another of its pair and Reordered must read 0
// under either selector. The C(4,2,4) and C(3,2,3) rows above read
// non-zero, which shows the count fires when paths differ. One middle
// cannot be killed (a kill needs another live middle), so this is a
// load storm.
func TestFabricChaosSinglePathKeepsOrder(t *testing.T) {
	want := FabricReport{Slots: 10000, Injected: 37924, Delivered: 37924, LinkNacks: 38, MaxResident: 75}
	for _, sel := range selects {
		t.Run(sel.String(), func(t *testing.T) {
			pinnedFabric(t, FabricConfig{
				Config: cf.Config{M: 1, K: 1, R: 4, Engine: rt.Spec{Seed: 0xFAB}, Select: sel},
				Slots:  10_000,
				Load:   0.95,
			}, want)
		})
	}
}

// TestFabricConfigValidation checks RunFabric refuses nonsense.
func TestFabricConfigValidation(t *testing.T) {
	if _, err := RunFabric(FabricConfig{Config: cf.Config{M: 2, K: 2, R: 2}, Slots: 0}); err == nil {
		t.Error("zero slots accepted")
	}
	if _, err := RunFabric(FabricConfig{Config: cf.Config{M: 1, K: 2, R: 2}, Slots: 10}); err == nil {
		t.Error("blocking topology accepted")
	}
}
