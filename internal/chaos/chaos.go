// Package chaos drives deterministic, seeded fault schedules against the
// live engine (internal/runtime), the offline simulator
// (internal/simswitch) and the Clos fabric (internal/closfabric),
// checking the invariants that define graceful degradation:
//
//   - Conservation, every slot: admitted == delivered + dropped + resident,
//     and delivered == consumed + in-flight on the output channels. No
//     fault sequence may lose or mint a frame.
//   - Isolation: a failed link receives zero grants while down, and no
//     admission — steered or not — lands on a down input.
//   - Flow tier, when on: resident == inserted − evicted every slot, and a
//     resident flow never moves off a live port (the drop pairing may
//     rehome it off a down one; hold never moves it). Eviction forgets
//     steering state, never frames.
//   - Class tier, when on: per class, admitted − delivered − dropped −
//     queued (the frames past the PIFO but still in the switch) is
//     nonnegative and their sum bounded by the engine backlog; when every
//     request is classified its totals equal the engine's.
//   - Liveness: the run completes — no deadlock, no panic — and shutdown
//     accounts every frame the drain could not deliver.
//
// Run is the one engine storm: Config selects the datapath and the front
// tiers, and every invariant above that applies to the selection is
// checked on every run (DESIGN.md §16 tabulates the combinations). RunSim
// and RunFabric keep their own loops — different systems, different
// fault models — around the same schedule and defaults.
//
// A run is fully determined by its Config: the fault schedule (link
// flaps, stuck consumers, client kills), their durations, and the offered
// traffic all derive from independent PCG32 streams of Config.Seed, so a
// failing Config reported by CI replays exactly.
package chaos

import (
	"fmt"

	"repro/internal/conserve"
	"repro/internal/datapath"
	"repro/internal/flowtable"
	"repro/internal/matching"
	"repro/internal/pifo"
	"repro/internal/rng"
	rt "repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/simswitch"
	"repro/internal/traffic"
)

// Config parameterizes one chaos run: the engine under test as an
// rt.Spec, plus the storm around it. The zero value plus N, Slots and
// Seed is a sensible storm: moderate load, small queues (so backpressure
// actually fires), every fault kind enabled, the VOQ datapath and no
// front tier. Seed seeds the scheduler and every storm stream. RunSim
// reads N, Slots, Seed, Scheduler, Load, VOQCap and the fault rates only.
//
// The storm's engine defaults differ from runtime's: VOQCap 16 and
// OutCap 8, so the run exercises backpressure and output masking
// alongside faults; on cicq XPCap 4, small enough that dispatch
// regularly finds crosspoints full; with Flows, FlowPolicy po2 and
// FlowSeed = Seed; with Classes, Rank deadline.
type Config struct {
	rt.Spec
	Slots int64

	// Load is the per-input Bernoulli admission probability. Default 0.6.
	Load float64

	// Per-slot, per-healthy-port probabilities of each fault kind
	// starting, and the mean duration of an episode in slots. A port is
	// in at most one episode at a time.
	FlapRate  float64 // link flap (one direction); default 0.02
	StuckRate float64 // consumer stops reading its output; default 0.01
	KillRate  float64 // client dies: both links down, no admit/consume; default 0.005
	MeanFlap  int     // default 40
	MeanStuck int     // default 60
	MeanDead  int     // default 100

	// With Flows > 0 (the storms use 512 — small enough to cycle under
	// churn) every request is steered; the other flow fields need it.
	// Population is the distinct flow-id universe offered, default
	// 4×Flows so eviction pressure is real; Skew the Zipf popularity
	// exponent, default 1. The eviction epoch advances every EpochEvery
	// slots (default 64) and flows idle for FlowIdle epochs (default 3)
	// are swept mid-storm.
	Population int
	Skew       float64
	EpochEvery int64
	FlowIdle   uint32

	// With Classes set every request is classified; the other class
	// fields need it. Mix is the admission weight by class index, default
	// uniform. Every BudgetEvery-th class admission (default 7, negative
	// for none) carries an explicit two-slot deadline budget, tighter
	// than any storm class's SLO.
	Mix         []float64
	BudgetEvery int

	// With both tiers on, each frame draws its request shape — plain,
	// steered, classified, or steered and classified — from its own
	// stream: every composition of Offer's optional stages on one engine.
	// ComposedOnly (both tiers required) makes every frame steered and
	// classified instead, so the class tier's totals must equal the
	// engine's.
	ComposedOnly bool
}

// def sets *p to v when it still holds its zero value.
func def[T comparable](p *T, v T) {
	var zero T
	if *p == zero {
		*p = v
	}
}

// stormDefaults fills the knobs every storm shares, engine or fabric.
func stormDefaults(engine *rt.Spec, load *float64) {
	def(load, 0.6)
	def(&engine.VOQCap, 16)
	def(&engine.OutCap, 8)
}

func (c *Config) normalize() error {
	if c.N <= 0 || c.Slots <= 0 {
		return fmt.Errorf("chaos: n %d slots %d", c.N, c.Slots)
	}
	stormDefaults(&c.Spec, &c.Load)
	if c.Datapath == datapath.CICQ {
		def(&c.XPCap, 4)
	}
	def(&c.FlapRate, 0.02)
	def(&c.StuckRate, 0.01)
	def(&c.KillRate, 0.005)
	def(&c.MeanFlap, 40)
	def(&c.MeanStuck, 60)
	def(&c.MeanDead, 100)
	if c.Flows > 0 {
		def(&c.Population, 4*c.Flows)
		def(&c.FlowPolicy, flowtable.PolicyPo2)
		def(&c.FlowSeed, c.Seed)
		def(&c.Skew, 1)
		def(&c.EpochEvery, 64)
		def(&c.FlowIdle, 3)
	} else if c.FlowShards != 0 || c.Population != 0 || c.Skew != 0 || c.EpochEvery != 0 || c.FlowIdle != 0 {
		return fmt.Errorf("chaos: flow fields set with Flows %d (the tier is off)", c.Flows)
	}
	if c.Classes != "" {
		def(&c.Rank, pifo.RankDeadline)
		def(&c.BudgetEvery, 7)
	} else if c.Mix != nil || c.BudgetEvery != 0 {
		return fmt.Errorf("chaos: class fields set without Classes (the tier is off)")
	}
	if c.ComposedOnly && (c.Flows == 0 || c.Classes == "") {
		return fmt.Errorf("chaos: ComposedOnly needs both Flows and Classes")
	}
	return nil
}

// Report summarizes a completed chaos run.
type Report struct {
	Slots         int64
	Admitted      int64 // frames/packets accepted into the switch
	Delivered     int64 // frames handed to output channels (engine) / forwarded (sim)
	Consumed      int64 // frames read out of output channels (engine only)
	Dropped       int64 // frames dropped by fault policy (engine) / full PQ (sim)
	Rejected      int64 // Admit calls refused with ErrPortDown
	Backpressured int64 // Admit calls refused with ErrBackpressure
	Undrained     int64 // frames the shutdown drain could not deliver
	MaxBacklog    int64

	// Flow-tier accounting, nonzero only with Config.Flows: steering-table
	// admissions, idle-epoch evictions, rehomes off down ports, and
	// steered requests refused because the table was full.
	FlowsInserted   int64
	FlowsEvicted    int64
	FlowsRebalanced int64
	FlowRejections  int64

	// Class-tier accounting, nonzero only with Config.Classes: per-class
	// totals summed across classes (classified admissions, frames
	// dropped from PIFOs by fault sweeps, SLO violations).
	ClassAdmitted   int64
	ClassDropped    int64
	ClassViolations int64

	// Shapes counts admitted frames per request shape — plain, steered,
	// classified, steered+classified — on runs that draw the shape per
	// frame (both tiers on, not ComposedOnly); zero on every other run,
	// where there is one shape and Admitted is its count.
	Shapes [4]int64

	Flaps, Stucks, Kills int // fault episodes injected
}

// portCondition tracks a port's current chaos episode.
type portCondition int

const (
	healthy portCondition = iota
	flapIn
	flapOut
	stuckOut
	dead
)

// schedule is the online fault-schedule generator Run and RunSim share:
// one PCG32 stream decides, per slot and per healthy port, whether an
// episode starts and how long it lasts.
type schedule struct {
	cfg  *Config
	rng  *rng.PCG32
	cond []portCondition
	rem  []int64

	// Desired link state, kept in lockstep with the Fail*/Recover* calls
	// the driver issues; the grant-isolation check reads these.
	inDown, outDown []bool
}

func newSchedule(cfg *Config) *schedule {
	return &schedule{
		cfg:     cfg,
		rng:     rng.NewPCG32(cfg.Seed, 0xFA17),
		cond:    make([]portCondition, cfg.N),
		rem:     make([]int64, cfg.N),
		inDown:  make([]bool, cfg.N),
		outDown: make([]bool, cfg.N),
	}
}

func (s *schedule) duration(mean int) int64 {
	return int64(1 + s.rng.Intn(2*mean))
}

// faultSink is the subset of fault controls the engine and the simulator
// both expose.
type faultSink interface {
	FailInput(int) error
	FailOutput(int) error
	RecoverInput(int) error
	RecoverOutput(int) error
}

// advance ends due episodes and starts new ones, mirroring every link
// transition into sink. Called once per slot, before the slot runs, so a
// transition takes effect on that slot's schedule.
func (s *schedule) advance(sink faultSink, rep *Report) error {
	for p := 0; p < s.cfg.N; p++ {
		if s.cond[p] != healthy {
			s.rem[p]--
			if s.rem[p] > 0 {
				continue
			}
			switch s.cond[p] {
			case flapIn:
				if err := sink.RecoverInput(p); err != nil {
					return err
				}
				s.inDown[p] = false
			case flapOut:
				if err := sink.RecoverOutput(p); err != nil {
					return err
				}
				s.outDown[p] = false
			case dead:
				if err := sink.RecoverInput(p); err != nil {
					return err
				}
				if err := sink.RecoverOutput(p); err != nil {
					return err
				}
				s.inDown[p], s.outDown[p] = false, false
			}
			s.cond[p] = healthy
			continue
		}
		r := s.rng.Float64()
		switch {
		case r < s.cfg.FlapRate:
			rep.Flaps++
			s.rem[p] = s.duration(s.cfg.MeanFlap)
			if s.rng.Bool(0.5) {
				s.cond[p] = flapIn
				s.inDown[p] = true
				if err := sink.FailInput(p); err != nil {
					return err
				}
			} else {
				s.cond[p] = flapOut
				s.outDown[p] = true
				if err := sink.FailOutput(p); err != nil {
					return err
				}
			}
		case r < s.cfg.FlapRate+s.cfg.StuckRate:
			rep.Stucks++
			s.cond[p] = stuckOut
			s.rem[p] = s.duration(s.cfg.MeanStuck)
		case r < s.cfg.FlapRate+s.cfg.StuckRate+s.cfg.KillRate:
			rep.Kills++
			s.cond[p] = dead
			s.rem[p] = s.duration(s.cfg.MeanDead)
			s.inDown[p], s.outDown[p] = true, true
			if err := sink.FailInput(p); err != nil {
				return err
			}
			if err := sink.FailOutput(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// violation formats an invariant failure the way every driver reports
// one: the slot it surfaced in and the seed that replays it.
func (s *schedule) violation(slot int64, format string, args ...any) error {
	return fmt.Errorf("chaos: slot %d: %s (seed %d)", slot, fmt.Sprintf(format, args...), s.cfg.Seed)
}

// checkGrants enforces grant isolation on the per-output grant vector
// both engine datapaths and the simulator report: no grant may touch a
// down link.
func (s *schedule) checkGrants(slot int64, g *sched.GrantSet) error {
	for j, i := range g.Src {
		if i != matching.Unmatched && (s.inDown[i] || s.outDown[j]) {
			return s.violation(slot, "grant %d→%d touches a failed link", i, j)
		}
	}
	return nil
}

// RunSim drives the offline simulator through the same seeded fault
// schedule (link flaps and kills; the simulator has no consumers to
// stick, so stuck episodes only pause that port's fault dice). The
// simulator holds stranded packets — it is the offline twin of
// HoldStranded — so conservation is Generated == Forwarded + DroppedPQ +
// Live every slot.
func RunSim(cfg Config) (*Report, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	n := cfg.N
	ecfg, err := cfg.Build()
	if err != nil {
		return nil, err
	}
	plan := newSchedule(&cfg)
	rep := &Report{Slots: cfg.Slots}

	var grantErr error
	sim, err := simswitch.New(simswitch.Config{
		N:            n,
		Mode:         simswitch.VOQ,
		Scheduler:    ecfg.Scheduler,
		Gen:          traffic.NewBernoulli(n, cfg.Load, traffic.NewUniform(n), cfg.Seed),
		VOQCap:       cfg.VOQCap,
		PQCap:        4 * cfg.VOQCap,
		MeasureSlots: cfg.Slots,
		Validate:     true,
		Trace: func(ev simswitch.TraceEvent) {
			if grantErr == nil {
				grantErr = plan.checkGrants(int64(ev.Slot), ev.Grants)
			}
		},
	})
	if err != nil {
		return nil, err
	}

	for slot := int64(0); slot < cfg.Slots; slot++ {
		if err := plan.advance(sim, rep); err != nil {
			return rep, err
		}
		if err := sim.Step(); err != nil {
			return rep, fmt.Errorf("chaos: %w (seed %d)", err, cfg.Seed)
		}
		if grantErr != nil {
			return rep, grantErr
		}
		c := sim.CountersNow()
		live := int64(sim.Live())
		terms := conserve.Terms{
			Scope:     "sim",
			Slot:      slot,
			Injected:  c.Generated,
			Delivered: c.Forwarded,
			Dropped:   c.DroppedPQ,
			Resident:  live,
		}
		if err := terms.Check(); err != nil {
			return rep, fmt.Errorf("chaos: %w (seed %d)", err, cfg.Seed)
		}
		if live > rep.MaxBacklog {
			rep.MaxBacklog = live
		}
	}
	c := sim.CountersNow()
	rep.Admitted = c.Generated
	rep.Delivered = c.Forwarded
	rep.Dropped = c.DroppedPQ
	rep.Undrained = int64(sim.Live())
	return rep, nil
}
