package chaos

import (
	"errors"
	"fmt"

	cf "repro/internal/closfabric"
	"repro/internal/rng"
	rt "repro/internal/runtime"
)

// FabricConfig parameterizes a seeded chaos run against a live Clos
// fabric: uniform Bernoulli traffic over the external ports while a fault
// schedule kills and revives entire middle-stage switches.
type FabricConfig struct {
	// M, K, R are the Clos dimensions (see closfabric.Config).
	M, K, R int
	Slots   int64
	Seed    uint64

	// Scheduler is a sched registry name; default lcf_central_rr.
	Scheduler string
	// Load is the per-external-port Bernoulli admission probability.
	// Default 0.6.
	Load float64
	// VOQCap and OutCap are deliberately small by default (16 and 8), as
	// in Config, so backpressure and link NACKs happen alongside faults.
	VOQCap, OutCap int
	// Policy is every engine's disposition of stranded frames.
	Policy rt.FaultPolicy
	// Select is the middle-stage routing policy. Least-backlogged is the
	// default here: rerouting around a dead middle is the behaviour under
	// test.
	Select cf.MiddleSelect

	// KillRate is the per-slot probability that a middle-switch kill
	// episode starts while every middle is healthy enough to lose one
	// (at least one other middle live). Default 0.005. MeanDead is the
	// mean episode length in slots (geometric); default 200.
	KillRate float64
	MeanDead int
}

func (c *FabricConfig) normalize() error {
	if c.Slots <= 0 {
		return fmt.Errorf("chaos: fabric slots %d", c.Slots)
	}
	stormDefaults(&c.Scheduler, &c.Load, &c.VOQCap, &c.OutCap)
	def(&c.KillRate, 0.005)
	def(&c.MeanDead, 200)
	return nil
}

// FabricReport summarizes a completed fabric chaos run.
type FabricReport struct {
	Slots         int64
	Injected      int64 // frames accepted into the fabric
	Delivered     int64 // frames delivered at external egress ports
	Dropped       int64 // frames dropped fabric-wide by the fault policy
	Rejected      int64 // Admit refusals on dead paths
	Backpressured int64 // Admit refusals on full ingress VOQs
	LinkNacks     int64 // inter-switch link retries
	Undrained     int64 // frames still resident when the final drain gave up
	MaxResident   int64

	Kills int // middle-switch kill episodes injected
}

// RunFabric drives a live Clos fabric through cfg.Slots slots of seeded
// middle-switch kills. Fabric-wide conservation (injected == delivered +
// dropped + resident, audited from the engine gauges and link registers)
// is checked by the fabric itself after every slot; the first violation
// comes back as an error with the seed embedded for replay. After the
// scheduled slots every middle is revived and the fabric drained: under
// the hold policy every admitted frame must deliver, under drop the books
// must close exactly as injected == delivered + dropped.
func RunFabric(cfg FabricConfig) (*FabricReport, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	f, err := cf.New(cf.Config{
		M: cfg.M, K: cfg.K, R: cfg.R,
		Scheduler: cfg.Scheduler,
		Seed:      cfg.Seed,
		VOQCap:    cfg.VOQCap,
		OutCap:    cfg.OutCap,
		Policy:    cfg.Policy,
		Select:    cfg.Select,
	})
	if err != nil {
		return nil, err
	}
	m, _, _ := f.Dims()
	n := f.N()
	rep := &FabricReport{Slots: cfg.Slots}

	faultRng := rng.NewPCG32(cfg.Seed, 0xFA)
	admitRng := rng.NewPCG32(cfg.Seed, 0xAD)
	deadFor := make([]int64, m) // remaining slots of each middle's kill episode
	st := f.Stats()

	var seq uint64
	for slot := int64(0); slot < cfg.Slots; slot++ {
		// Fault schedule: revive expired episodes, maybe start one more.
		for c := 0; c < m; c++ {
			if deadFor[c] > 0 {
				deadFor[c]--
				if deadFor[c] == 0 {
					if err := f.RecoverMiddle(c); err != nil {
						return rep, err
					}
				}
			}
		}
		live := 0
		for c := 0; c < m; c++ {
			if deadFor[c] == 0 {
				live++
			}
		}
		if live > 1 && faultRng.Bool(cfg.KillRate) {
			victim := faultRng.Intn(m)
			for deadFor[victim] > 0 {
				victim = (victim + 1) % m
			}
			if err := f.FailMiddle(victim); err != nil {
				return rep, err
			}
			deadFor[victim] = int64(1 + faultRng.Geometric(1/float64(cfg.MeanDead)))
			rep.Kills++
		}

		// Offered load: every external port tries one frame with prob
		// Load. Rejections on dead paths and full VOQs are expected; any
		// other error is a wiring bug.
		for p := 0; p < n; p++ {
			if !admitRng.Bool(cfg.Load) {
				continue
			}
			seq++
			switch err := f.Admit(p, admitRng.Intn(n), seq, 0); {
			case err == nil:
			case errors.Is(err, cf.ErrBackpressure):
				rep.Backpressured++
			case errors.Is(err, rt.ErrPortDown), errors.Is(err, cf.ErrNoMiddle):
				rep.Rejected++
			default:
				return rep, fmt.Errorf("chaos: fabric slot %d: Admit = %v (seed %d)", slot, err, cfg.Seed)
			}
		}

		// Tick runs the fabric-wide conservation audit itself.
		if err := f.Tick(); err != nil {
			return rep, fmt.Errorf("%w (seed %d)", err, cfg.Seed)
		}
		if r := f.Resident(); r > rep.MaxResident {
			rep.MaxResident = r
		}
	}

	// Recover everything and drain: the fabric must come back.
	for c := 0; c < m; c++ {
		if err := f.RecoverMiddle(c); err != nil {
			return rep, err
		}
	}
	f.Close()
	left, err := f.Drain(20 * n * cfg.VOQCap)
	if err != nil {
		return rep, fmt.Errorf("%w (seed %d)", err, cfg.Seed)
	}
	rep.Undrained = left
	rep.Injected = st.Injected.Value()
	rep.Delivered = st.Delivered.Value()
	rep.Dropped = st.Dropped.Value()
	rep.LinkNacks = st.LinkNacks.Value()
	if rep.Injected != rep.Delivered+rep.Dropped+rep.Undrained {
		return rep, fmt.Errorf("chaos: fabric shutdown accounting broken: injected %d != delivered %d + dropped %d + undrained %d (seed %d)",
			rep.Injected, rep.Delivered, rep.Dropped, rep.Undrained, cfg.Seed)
	}
	if rep.Undrained != 0 {
		return rep, fmt.Errorf("chaos: fabric failed to drain after recovery: %d frames resident (seed %d)",
			rep.Undrained, cfg.Seed)
	}
	if cfg.Policy == rt.HoldStranded && rep.Dropped != 0 {
		return rep, fmt.Errorf("chaos: hold policy dropped %d frames (seed %d)", rep.Dropped, cfg.Seed)
	}
	return rep, nil
}
