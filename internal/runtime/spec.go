package runtime

import (
	"fmt"

	"repro/internal/pifo"
	"repro/internal/sched"
	"repro/internal/sched/registry"
	"repro/internal/switchcore"
)

// DefaultScheduler is the registry name a Spec with no Scheduler builds:
// the paper's central LCF with the round-robin tiebreak.
const DefaultScheduler = "lcf_central_rr"

// Spec is one engine described in plain values — what a flag set, a
// storm table or a fabric template writes. Its fields mean what the
// Config fields of the same names mean, except that the scheduler and
// the class list are names, not built values. Build turns a Spec into a
// Config; it is the only place those names resolve, and its errors name
// each setting by the lcfd flag that sets it. A caller adds only what
// belongs to the caller: SlotPeriod, Tracer, OnSlot and OnDropped.
//
// A Spec names a scheduler instead of carrying one for two reasons: the
// cicq datapath needs none (its arbiters decide locally, so Build skips
// the name there), and a fabric builds one per engine from the same
// name with a seed of its own.
type Spec struct {
	N int
	// Scheduler is a sched registry name; "" means DefaultScheduler.
	// Iterations (0 means 4) and Seed are its sched.Options.
	Scheduler  string
	Iterations int
	Seed       uint64

	Datapath string
	XPCap    int

	VOQCap, OutCap int

	FaultPolicy FaultPolicy

	Flows      int
	FlowPolicy string
	FlowShards int
	FlowSeed   uint64

	// Classes is a pifo.ParseClasses spec; "" leaves the class tier off.
	Classes string
	Rank    string
}

// Build resolves s into a Config that New accepts: it parses the class
// list, builds the scheduler (not on the cicq datapath) and checks every
// rule Config.normalize holds a Config to.
func (s Spec) Build() (Config, error) {
	c := Config{
		N: s.N, Datapath: s.Datapath, XPCap: s.XPCap,
		VOQCap: s.VOQCap, OutCap: s.OutCap,
		FaultPolicy: s.FaultPolicy,
		Flows:       s.Flows, FlowPolicy: s.FlowPolicy, FlowShards: s.FlowShards, FlowSeed: s.FlowSeed,
		Rank: s.Rank,
	}
	if s.Iterations < 0 {
		return Config{}, fmt.Errorf("runtime: -iterations must be >= 0 (got %d)", s.Iterations)
	}
	if s.Classes != "" {
		var err error
		if c.Classes, err = pifo.ParseClasses(s.Classes); err != nil {
			return Config{}, fmt.Errorf("runtime: -classes: %w", err)
		}
	}
	// normalize reports a bad port count before anything is sized by it.
	if s.Datapath != switchcore.DatapathCICQ && s.N > 0 {
		name := s.Scheduler
		if name == "" {
			name = DefaultScheduler
		}
		var err error
		if c.Scheduler, err = registry.New(name, s.N, sched.Options{Iterations: s.Iterations, Seed: s.Seed}); err != nil {
			return Config{}, err
		}
	}
	if err := c.normalize(); err != nil {
		return Config{}, err
	}
	return c, nil
}
