package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	cf "repro/internal/closfabric"
	"repro/internal/datapath"
	rt "repro/internal/runtime"
)

// stormClasses is the three-tier class spec of the class storms: a tight
// real-time SLO, so violations actually occur under faults.
const stormClasses = "rt:0:4:16,std:1:2:64,bulk:2:1"

// writeSeedArtifact records a failing configuration where CI can pick it
// up (CHAOS_SEED_DIR is set by the race job). A chaos run is fully
// determined by its config, so the artifact carries all of it — every
// tier selector, not only the seed — and a red run replays byte for byte.
// It returns the file written, "" when the directory is not configured.
func writeSeedArtifact(test string, seed uint64, cfg any, err error) string {
	dir := os.Getenv("CHAOS_SEED_DIR")
	if dir == "" {
		return ""
	}
	_ = os.MkdirAll(dir, 0o755)
	path := filepath.Join(dir, fmt.Sprintf("seed-%s-%d.txt", strings.ReplaceAll(test, "/", "-"), seed))
	_ = os.WriteFile(path, []byte(fmt.Sprintf("test=%s\nconfig=%+v\nerror: %v\n", test, cfg, err)), 0o644)
	return path
}

// reportSeed persists the failing configuration, then fails the test.
func reportSeed(t *testing.T, seed uint64, cfg any, err error) {
	t.Helper()
	writeSeedArtifact(t.Name(), seed, cfg, err)
	t.Fatal(err)
}

// storm runs cfg; a returned error is an invariant violation (Run checks
// all of them after every slot) and fails the test with an artifact.
func storm(t *testing.T, cfg Config) *Report {
	t.Helper()
	rep, err := Run(cfg)
	if err != nil {
		reportSeed(t, cfg.Seed, cfg, err)
	}
	return rep
}

// pinned is storm plus the golden: want is the Report that the per-tier
// driver Run replaced returned for this configuration, captured at the
// commit before the four were merged, so "the unified loop replays every
// recorded storm" is checked field for field. Regenerate a constant only
// for a change that means to move it.
func pinned(t *testing.T, cfg Config, want Report) *Report {
	t.Helper()
	rep := storm(t, cfg)
	if *rep != want {
		t.Fatalf("%+v\nreport moved:\n got  %+v\n want %+v", cfg, *rep, want)
	}
	return rep
}

// exercised asserts that a storm long enough to be an acceptance run
// reached what its configuration exists to reach: every fault kind fired,
// admissions bounced off down links, the fault policy and each enabled
// tier left its trace. The goldens imply all of it today; these say which
// properties a regenerated golden must still have.
func exercised(t *testing.T, cfg Config, rep *Report) {
	t.Helper()
	bad := func(format string, args ...any) {
		t.Helper()
		t.Errorf(format+"\nreport: %+v", append(args, *rep)...)
	}
	if rep.Flaps == 0 || rep.Stucks == 0 || rep.Kills == 0 {
		bad("fault schedule too quiet")
	}
	if rep.Rejected == 0 {
		bad("no admission was rejected by a down link — faults not exercised")
	}
	if rep.Admitted == 0 || rep.Consumed == 0 {
		bad("no traffic flowed")
	}
	if hold := cfg.FaultPolicy == rt.HoldStranded; hold && (rep.Dropped != 0 || rep.ClassDropped != 0) {
		bad("hold policy dropped frames")
	} else if !hold && rep.Dropped == 0 {
		bad("drop policy dropped nothing")
	}
	if cfg.Flows > 0 {
		if rep.FlowsInserted == 0 {
			bad("no flow was ever admitted to the steering table")
		}
		if rep.FlowsEvicted == 0 {
			bad("idle-eviction sweeps never fired — churn not exercised")
		}
		// hold pins a sticky flow to its down port (it bounces with
		// ErrPortDown until the flap clears, which is what keeps per-flow
		// order); drop rehomes it.
		if rehomes := rep.FlowsRebalanced != 0; rehomes != (cfg.FaultPolicy == rt.DropStranded) {
			bad("flows rehomed = %t under policy %v", rehomes, cfg.FaultPolicy)
		}
	}
	if cfg.Classes != "" {
		if rep.ClassViolations == 0 {
			bad("a 16-slot SLO under faults never missed — deadlines not exercised")
		}
		if cfg.FaultPolicy == rt.DropStranded && rep.ClassDropped == 0 {
			bad("no PIFO-resident frame was ever swept by a fault — class drop path not exercised")
		}
	}
}

// acceptance10k is the table of 10k-slot acceptance storms, one row per
// engine configuration that shipped with its own driver: link
// flaps, stuck consumers and client kills under both stranded-frame
// policies. want is indexed by rt.FaultPolicy (hold, drop).
var acceptance10k = map[string]struct {
	cfg  Config
	want [2]Report
}{
	"engine": {Config{Spec: rt.Spec{N: 8, Seed: 0xC0FFEE}, Slots: 10_000}, [2]Report{
		{Slots: 10000, Admitted: 22693, Delivered: 22650, Consumed: 22650, Rejected: 25400, Backpressured: 22, Undrained: 43, MaxBacklog: 228, Flaps: 552, Stucks: 240, Kills: 126},
		{Slots: 10000, Admitted: 22713, Delivered: 20226, Consumed: 20226, Dropped: 2483, Rejected: 25400, Backpressured: 2, Undrained: 4, MaxBacklog: 165, Flaps: 552, Stucks: 240, Kills: 126},
	}},
	// The crosspoint-buffered datapath: no central matching, grant
	// isolation audited on the pull arbiters' per-output vector.
	"cicq": {Config{Spec: rt.Spec{N: 8, Seed: 0xC1C0, Datapath: datapath.CICQ}, Slots: 10_000}, [2]Report{
		{Slots: 10000, Admitted: 23701, Delivered: 23637, Consumed: 23637, Rejected: 24379, Backpressured: 50, Undrained: 64, MaxBacklog: 233, Flaps: 541, Stucks: 283, Kills: 147},
		{Slots: 10000, Admitted: 23747, Delivered: 21105, Consumed: 21105, Dropped: 2642, Rejected: 24379, Backpressured: 4, MaxBacklog: 175, Flaps: 541, Stucks: 283, Kills: 147},
	}},
	// Every frame steered, a Zipf population four times the
	// table, idle-eviction sweeps every 64 slots: po2 never picks a down
	// port, sticky flows survive flaps under hold, eviction never strands
	// a frame.
	"flows": {Config{Spec: rt.Spec{N: 8, Seed: 0xC0FFEE, Flows: 512}, Slots: 10_000}, [2]Report{
		{Slots: 10000, Admitted: 25453, Delivered: 25394, Consumed: 25394, Rejected: 22597, Backpressured: 62, Undrained: 59, MaxBacklog: 236, FlowsInserted: 13154, FlowsEvicted: 12740, FlowRejections: 3, Flaps: 552, Stucks: 240, Kills: 126},
		{Slots: 10000, Admitted: 31786, Delivered: 26554, Consumed: 26554, Dropped: 5204, Rejected: 15626, Backpressured: 700, Undrained: 28, MaxBacklog: 200, FlowsInserted: 13154, FlowsEvicted: 12740, FlowsRebalanced: 3813, FlowRejections: 3, Flaps: 552, Stucks: 240, Kills: 126},
	}},
	// Every frame classified, with per-frame budgets in play; the
	// real-time-heavy mix makes SLO misses inevitable under stuck
	// consumers.
	"classes": {Config{Spec: rt.Spec{N: 8, Seed: 0xC1A55ED, Classes: stormClasses}, Slots: 10_000, Mix: []float64{4, 2, 1}}, [2]Report{
		{Slots: 10000, Admitted: 22538, Delivered: 22529, Consumed: 22529, Rejected: 25557, Backpressured: 34, Undrained: 9, MaxBacklog: 301, ClassAdmitted: 22538, ClassViolations: 5364, Flaps: 567, Stucks: 256, Kills: 152},
		{Slots: 10000, Admitted: 22560, Delivered: 19902, Consumed: 19902, Dropped: 2658, Rejected: 25557, Backpressured: 12, MaxBacklog: 230, ClassAdmitted: 22560, ClassDropped: 2658, ClassViolations: 2412, Flaps: 567, Stucks: 256, Kills: 152},
	}},
}

func acceptance(t *testing.T, row string) {
	for _, policy := range []rt.FaultPolicy{rt.HoldStranded, rt.DropStranded} {
		t.Run(policy.String(), func(t *testing.T) {
			r := acceptance10k[row]
			r.cfg.FaultPolicy = policy
			rep := pinned(t, r.cfg, r.want[policy])
			exercised(t, r.cfg, rep)
			t.Logf("report: %+v", rep)
		})
	}
}

func TestEngineChaos10k(t *testing.T) { acceptance(t, "engine") }
func TestCICQChaos10k(t *testing.T)   { acceptance(t, "cicq") }
func TestFlowChaos10k(t *testing.T)   { acceptance(t, "flows") }
func TestClassChaos10k(t *testing.T)  { acceptance(t, "classes") }

// seedFans sends four more seeds at a shorter, hotter run per datapath,
// so a seed-dependent schedule cannot hide a violation. The cicq row runs
// crosspoint capacity 1, so dispatch regularly finds crosspoints full
// mid-fault. want follows fanSeeds.
var fanSeeds = [4]uint64{1, 7, 42, 1337}

var seedFans = map[string]struct {
	cfg  Config
	want [4]Report
}{
	"engine": {Config{Spec: rt.Spec{N: 6, FaultPolicy: rt.DropStranded}, Slots: 2_000, Load: 0.8}, [4]Report{
		{Slots: 2000, Admitted: 4493, Delivered: 3838, Consumed: 3838, Dropped: 655, Rejected: 4921, Backpressured: 77, MaxBacklog: 169, Flaps: 78, Stucks: 40, Kills: 19},
		{Slots: 2000, Admitted: 4717, Delivered: 3997, Consumed: 3997, Dropped: 697, Rejected: 4860, Backpressured: 54, Undrained: 23, MaxBacklog: 131, Flaps: 91, Stucks: 42, Kills: 19},
		{Slots: 2000, Admitted: 4332, Delivered: 3654, Consumed: 3654, Dropped: 599, Rejected: 5250, Backpressured: 35, Undrained: 79, MaxBacklog: 127, Flaps: 67, Stucks: 38, Kills: 25},
		{Slots: 2000, Admitted: 4677, Delivered: 3678, Consumed: 3678, Dropped: 999, Rejected: 4922, Backpressured: 47, MaxBacklog: 151, Flaps: 77, Stucks: 47, Kills: 23},
	}},
	"cicq": {Config{Spec: rt.Spec{N: 6, FaultPolicy: rt.DropStranded, Datapath: datapath.CICQ, XPCap: 1}, Slots: 2_000, Load: 0.8}, [4]Report{
		{Slots: 2000, Admitted: 4511, Delivered: 3869, Consumed: 3869, Dropped: 642, Rejected: 4921, Backpressured: 59, MaxBacklog: 170, Flaps: 78, Stucks: 40, Kills: 19},
		{Slots: 2000, Admitted: 4720, Delivered: 4033, Consumed: 4033, Dropped: 664, Rejected: 4860, Backpressured: 51, Undrained: 23, MaxBacklog: 131, Flaps: 91, Stucks: 42, Kills: 19},
		{Slots: 2000, Admitted: 4331, Delivered: 3675, Consumed: 3675, Dropped: 576, Rejected: 5250, Backpressured: 36, Undrained: 80, MaxBacklog: 126, Flaps: 67, Stucks: 38, Kills: 25},
		{Slots: 2000, Admitted: 4687, Delivered: 3697, Consumed: 3697, Dropped: 987, Rejected: 4922, Backpressured: 37, Undrained: 3, MaxBacklog: 150, Flaps: 77, Stucks: 47, Kills: 23},
	}},
}

func seedFan(t *testing.T, row string) {
	r := seedFans[row]
	for k, seed := range fanSeeds {
		r.cfg.Seed = seed
		pinned(t, r.cfg, r.want[k])
	}
}

func TestEngineChaosSeeds(t *testing.T) { seedFan(t, "engine") }
func TestCICQChaosSeeds(t *testing.T)   { seedFan(t, "cicq") }

// variant is one row of a sweep over a single tier knob; the invariants
// inside Run are agnostic to it and must hold for every value.
type variant struct {
	name string
	cfg  Config
	want Report
}

func sweep(t *testing.T, rows []variant, check func(*testing.T, *Report)) {
	for _, v := range rows {
		t.Run(v.name, func(t *testing.T) { check(t, pinned(t, v.cfg, v.want)) })
	}
}

// TestFlowChaosPolicies sweeps every registered steering policy.
func TestFlowChaosPolicies(t *testing.T) {
	base := Config{Spec: rt.Spec{N: 8, Seed: 0xBEEF, FaultPolicy: rt.DropStranded, Flows: 512}, Slots: 3_000}
	with := func(policy string) Config { c := base; c.FlowPolicy = policy; return c }
	sweep(t, []variant{
		{"hash", with("hash"), Report{Slots: 3000, Admitted: 9829, Delivered: 7888, Consumed: 7888, Dropped: 1864, Rejected: 4201, Backpressured: 426, Undrained: 77, MaxBacklog: 178, FlowsInserted: 4050, FlowsEvicted: 3609, FlowsRebalanced: 1094, FlowRejections: 3, Flaps: 178, Stucks: 78, Kills: 37}},
		{"least", with("least"), Report{Slots: 3000, Admitted: 10156, Delivered: 8258, Consumed: 8258, Dropped: 1824, Rejected: 4201, Backpressured: 99, Undrained: 74, MaxBacklog: 185, FlowsInserted: 4050, FlowsEvicted: 3609, FlowsRebalanced: 1172, FlowRejections: 3, Flaps: 178, Stucks: 78, Kills: 37}},
		{"po2", with("po2"), Report{Slots: 3000, Admitted: 10053, Delivered: 8188, Consumed: 8188, Dropped: 1793, Rejected: 4201, Backpressured: 202, Undrained: 72, MaxBacklog: 181, FlowsInserted: 4050, FlowsEvicted: 3609, FlowsRebalanced: 1155, FlowRejections: 3, Flaps: 178, Stucks: 78, Kills: 37}},
	}, func(t *testing.T, rep *Report) {
		if rep.FlowsInserted == 0 || rep.Admitted == 0 {
			t.Fatalf("policy moved no traffic: %+v", rep)
		}
	})
}

// TestClassChaosRanks sweeps every registered rank function. The same
// frames are admitted and dropped whatever the rank; only who misses its
// SLO moves.
func TestClassChaosRanks(t *testing.T) {
	base := Config{Spec: rt.Spec{N: 8, Seed: 0xBADC1A5, FaultPolicy: rt.DropStranded, Classes: stormClasses}, Slots: 3_000}
	with := func(rank string, violations int64) variant {
		c := base
		c.Rank = rank
		return variant{rank, c, Report{Slots: 3000, Admitted: 6858, Delivered: 6078, Consumed: 6078, Dropped: 780, Rejected: 7615, MaxBacklog: 111, ClassAdmitted: 6858, ClassDropped: 780, ClassViolations: violations, Flaps: 156, Stucks: 86, Kills: 48}}
	}
	sweep(t, []variant{with("fifo", 505), with("strict", 483), with("wfq", 498), with("deadline", 503)},
		func(t *testing.T, rep *Report) {
			if rep.ClassAdmitted == 0 {
				t.Fatalf("rank moved no traffic: %+v", rep)
			}
		})
}

// TestFlowChaosTableFull runs the storm with a tiny table against a much
// larger population and a long idle threshold, so ErrTableFull is the
// common case: rejections must be counted, return port -1 (asserted in
// Run), and never disturb frame conservation.
func TestFlowChaosTableFull(t *testing.T) {
	rep := pinned(t, Config{
		Spec:  rt.Spec{N: 8, Seed: 0xF00D, FaultPolicy: rt.HoldStranded, Flows: 64, FlowShards: 1},
		Slots: 3_000, Population: 4096, EpochEvery: 512, FlowIdle: 8,
	}, Report{Slots: 3000, Admitted: 3380, Delivered: 3380, Consumed: 3380, Rejected: 3611, Backpressured: 1, MaxBacklog: 63, FlowsInserted: 128, FlowRejections: 7410, Flaps: 153, Stucks: 79, Kills: 49})
	if rep.FlowRejections == 0 {
		t.Fatalf("a 64-flow table under a 4096-flow population never filled: %+v", rep)
	}
	if rep.Admitted == 0 || rep.Consumed == 0 {
		t.Fatalf("no traffic flowed: %+v", rep)
	}
}

// replays pins the contract behind the CI seed artifacts: the same
// config reproduces the identical run — twice in this process and against
// the recorded golden — and the next seed diverges, so the run really is
// seed-driven.
func replays(t *testing.T, cfg Config, want Report) {
	t.Helper()
	a, b := pinned(t, cfg, want), storm(t, cfg)
	if *a != *b {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
	cfg.Seed++
	if c := storm(t, cfg); *a == *c {
		t.Fatal("different seeds produced identical reports — schedule not seed-driven")
	}
}

func TestChaosDeterminism(t *testing.T) {
	replays(t, Config{Spec: rt.Spec{N: 5, Seed: 99, FaultPolicy: rt.DropStranded}, Slots: 1_500},
		Report{Slots: 1500, Admitted: 2420, Delivered: 2160, Consumed: 2160, Dropped: 260, Rejected: 2129, Backpressured: 23, MaxBacklog: 76, Flaps: 61, Stucks: 28, Kills: 9})
}

func TestCICQChaosDeterminism(t *testing.T) {
	replays(t, Config{Spec: rt.Spec{N: 5, Seed: 99, FaultPolicy: rt.DropStranded, Datapath: datapath.CICQ}, Slots: 1_500},
		Report{Slots: 1500, Admitted: 2440, Delivered: 2175, Consumed: 2175, Dropped: 265, Rejected: 2129, Backpressured: 3, MaxBacklog: 76, Flaps: 61, Stucks: 28, Kills: 9})
}

func TestFlowChaosDeterminism(t *testing.T) {
	replays(t, Config{Spec: rt.Spec{N: 8, Seed: 0xD0E, FaultPolicy: rt.DropStranded, Flows: 512}, Slots: 2_000},
		Report{Slots: 2000, Admitted: 6305, Delivered: 5369, Consumed: 5369, Dropped: 924, Rejected: 3138, Backpressured: 174, Undrained: 12, MaxBacklog: 160, FlowsInserted: 2766, FlowsEvicted: 2389, FlowsRebalanced: 691, FlowRejections: 2, Flaps: 109, Stucks: 57, Kills: 30})
}

func TestClassChaosDeterminism(t *testing.T) {
	replays(t, Config{Spec: rt.Spec{N: 8, Seed: 0xD1CE, FaultPolicy: rt.DropStranded, Classes: stormClasses}, Slots: 2_000},
		Report{Slots: 2000, Admitted: 4537, Delivered: 3964, Consumed: 3964, Dropped: 553, Rejected: 5067, Undrained: 20, MaxBacklog: 103, ClassAdmitted: 4537, ClassDropped: 553, ClassViolations: 346, Flaps: 101, Stucks: 58, Kills: 30})
}

// TestSimChaos10k drives the offline simulator through the same seeded
// schedule shape: flaps and kills mask rows/columns, packets strand and
// recover, and Generated == Forwarded + DroppedPQ + Live must hold every
// slot.
func TestSimChaos10k(t *testing.T) {
	cfg := Config{Spec: rt.Spec{N: 8, Seed: 0xC0FFEE}, Slots: 10_000}
	rep, err := RunSim(cfg)
	if err != nil {
		reportSeed(t, cfg.Seed, cfg, err)
	}
	want := Report{Slots: 10000, Admitted: 48260, Delivered: 34296, Dropped: 13266, Undrained: 698, MaxBacklog: 843, Flaps: 552, Stucks: 240, Kills: 126}
	if *rep != want {
		t.Fatalf("report moved:\n got  %+v\n want %+v", *rep, want)
	}
}

// TestConfigValidation covers the config edges: nothing runs on a
// malformed Config, and a field of a tier that is off is an error, not a
// silently ignored knob.
func TestConfigValidation(t *testing.T) {
	ok := Config{Spec: rt.Spec{N: 4, Seed: 1}, Slots: 10}
	for name, mutate := range map[string]func(*Config){
		"n=0":                       func(c *Config) { c.N = 0 },
		"slots=0":                   func(c *Config) { c.Slots = 0 },
		"unknown scheduler":         func(c *Config) { c.Scheduler = "no_such_sched" },
		"unknown datapath":          func(c *Config) { c.Datapath = "no_such_datapath" },
		"flow policy without flows": func(c *Config) { c.FlowPolicy = "po2" },
		"population without flows":  func(c *Config) { c.Population = 100 },
		"rank without classes":      func(c *Config) { c.Rank = "wfq" },
		"mix without classes":       func(c *Config) { c.Mix = []float64{1} },
		"unknown flow policy":       func(c *Config) { c.Flows, c.FlowPolicy = 64, "no_such_policy" },
		"bad class spec":            func(c *Config) { c.Classes = "bad:x" },
		"mix length":                func(c *Config) { c.Classes, c.Mix = stormClasses, []float64{1, 2} },
		"mix sums to zero":          func(c *Config) { c.Classes, c.Mix = stormClasses, []float64{0, 0, 0} },
		"negative mix weight":       func(c *Config) { c.Classes, c.Mix = stormClasses, []float64{2, -1, 1} },
		"composed without classes":  func(c *Config) { c.Flows, c.ComposedOnly = 64, true },
		"composed without flows":    func(c *Config) { c.Classes, c.ComposedOnly = stormClasses, true },
	} {
		cfg := ok
		mutate(&cfg)
		if rep, err := Run(cfg); err == nil || rep != nil {
			t.Errorf("%s: Run = %+v, %v; want a nil report and an error", name, rep, err)
		}
	}
	if _, err := RunSim(Config{Spec: rt.Spec{N: 4, Seed: 1}, Slots: 0}); err == nil {
		t.Error("RunSim accepted slots=0")
	}
	if _, err := Run(ok); err != nil {
		t.Errorf("the base config itself fails: %v", err)
	}
}

// TestSeedArtifactIsReplayable forces a failing run of each storm driver
// into a scratch CHAOS_SEED_DIR and requires the artifact to name every
// field that defines it. The old artifacts printed a handful of fields
// (seed/n/slots/policy/load for the engine, no KillRate, MeanDead,
// Scheduler or capacities for the fabric), so a red storm could not be
// replayed "byte for byte" as the CI step promises.
func TestSeedArtifactIsReplayable(t *testing.T) {
	t.Setenv("CHAOS_SEED_DIR", filepath.Join(t.TempDir(), "seeds"))
	engine := Config{
		Spec: rt.Spec{
			N: 6, Seed: 0xBAD5EED, FaultPolicy: rt.DropStranded,
			Datapath: datapath.CICQ, XPCap: 1,
			Flows: 64, FlowShards: 1, FlowPolicy: "least",
			Classes: "gold:0:3:8,lead:1:1", Rank: "wfq", ClassQCap: 5,
		},
		Slots: 500, Load: 0.75,
		Population: 4096, Skew: 1.2, EpochEvery: 512, FlowIdle: 8,
		Mix: []float64{3, 1, 1}, BudgetEvery: 11,
		ComposedOnly: true,
	}
	fabric := FabricConfig{
		Config: cf.Config{
			M: 1, K: 2, R: 3, Select: cf.SelectLeastBacklogged,
			Engine: rt.Spec{Seed: 0xFAB5EED, Scheduler: "islip", VOQCap: 9, OutCap: 4, FaultPolicy: rt.DropStranded},
		},
		Slots: 700, Load: 0.65,
		KillRate: 0.03, MeanDead: 150,
	}
	for _, row := range []struct {
		name string
		seed uint64
		cfg  any
		run  func() error
		why  string
		want []string
	}{
		{"engine", engine.Seed, engine, func() error { _, err := Run(engine); return err },
			"a mix longer than its class list", []string{
				"N:6", "Slots:500", "Seed:195911405", "Policy:drop", "Load:0.75",
				"Datapath:cicq", "XPCap:1",
				"Flows:64", "FlowShards:1", "Population:4096", "FlowPolicy:least", "Skew:1.2", "EpochEvery:512", "FlowIdle:8",
				"Classes:gold:0:3:8,lead:1:1", "Rank:wfq", "ClassQCap:5", "Mix:[3 1 1]", "BudgetEvery:11",
				"ComposedOnly:true",
			}},
		{"fabric", fabric.Engine.Seed, fabric, func() error { _, err := RunFabric(fabric); return err },
			"a blocking topology (m < k)", []string{
				"M:1", "K:2", "R:3", "Slots:700", "Seed:262889197", "Scheduler:islip", "Load:0.65",
				"VOQCap:9", "OutCap:4", "Policy:drop", "Select:backlog",
				"KillRate:0.03", "MeanDead:150",
			}},
	} {
		t.Run(row.name, func(t *testing.T) {
			err := row.run()
			if err == nil {
				t.Fatalf("run accepted %s", row.why)
			}
			path := writeSeedArtifact(t.Name(), row.seed, row.cfg, err)
			name := strings.ReplaceAll(t.Name(), "/", "-")
			if want := fmt.Sprintf("seed-%s-%d.txt", name, row.seed); filepath.Base(path) != want {
				t.Errorf("artifact is %q, want %q", filepath.Base(path), want)
			}
			raw, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatal(rerr)
			}
			artifact := string(raw)
			for _, want := range append([]string{"test=" + t.Name(), "error: " + err.Error()}, row.want...) {
				if !strings.Contains(artifact, want) {
					t.Errorf("artifact does not name %q:\n%s", want, artifact)
				}
			}
		})
	}
}
