package chaos

import (
	"errors"
	"fmt"

	"repro/internal/conserve"
	"repro/internal/flowtable"
	"repro/internal/pifo"
	"repro/internal/rng"
	rt "repro/internal/runtime"
	"repro/internal/traffic"
)

// shape is which of Offer's optional stages a request asks for, as a bit
// set; its value indexes Report.Shapes. With steered the switch, not the
// driver, picks the input.
type shape int

const (
	steered shape = 1 << iota
	classed
)

func (s shape) String() string {
	return [...]string{"plain", "steered", "classified", "steered+classified"}[s]
}

// Run drives a lockstep runtime.Engine, built from cfg's tier selectors,
// through cfg.Slots slots of seeded chaos: advance the fault plan, offer
// load in the request shapes the tiers allow, Tick, consume, audit. Every
// invariant in the package comment that applies to the selection is
// checked after every slot, and full accounting after shutdown. It
// returns the first violation as an error with the seed embedded for
// replay; an error with a nil Report means the engine was never built (a
// bad Config, or a combination runtime.New refuses).
func Run(cfg Config) (*Report, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	n := cfg.N
	sch, err := newScheduler(cfg.Scheduler, n, cfg.Seed)
	if err != nil {
		return nil, err
	}
	plan := newSchedule(&cfg)
	rep := &Report{Slots: cfg.Slots}

	// The request shapes follow the tiers. Each tier's traffic model draws
	// from its own stream — flow ids from a Zipf population, class labels
	// from the mix — so the arrival pattern (admitRng) is the same for one
	// seed whatever is enabled, and a storm recorded with one shape replays
	// unchanged.
	flowsOn, classesOn := cfg.Flows > 0, cfg.Classes != ""
	shapes := []shape{0}
	switch {
	case cfg.ComposedOnly:
		shapes = []shape{steered | classed}
	case flowsOn && classesOn:
		shapes = []shape{0, steered, classed, steered | classed}
	case flowsOn:
		shapes = []shape{steered}
	case classesOn:
		shapes = []shape{classed}
	}
	var zipf *traffic.Zipf
	if flowsOn {
		zipf = traffic.NewZipf(cfg.Population, cfg.Skew, cfg.Seed^0xF10F)
	}
	var classes []pifo.Class
	var mix *traffic.Weighted
	if classesOn {
		if classes, err = pifo.ParseClasses(cfg.Classes); err != nil {
			return nil, err
		}
		if cfg.Mix == nil {
			cfg.Mix = make([]float64, len(classes))
			for c := range cfg.Mix {
				cfg.Mix[c] = 1
			}
		}
		if len(cfg.Mix) != len(classes) {
			return nil, fmt.Errorf("chaos: mix names %d classes, spec has %d", len(cfg.Mix), len(classes))
		}
		if mix, err = traffic.NewWeighted(cfg.Mix); err != nil {
			return nil, err
		}
	}
	admitRng := rng.NewPCG32(cfg.Seed, 0xAD)
	classRng := rng.NewPCG32(cfg.Seed, 0xC1A55)
	shapeRng := rng.NewPCG32(cfg.Seed, 0xD008)

	var grantErr error
	e, err := rt.New(rt.Config{
		N:           n,
		Scheduler:   sch, // the cicq datapath arbitrates locally and ignores it
		Datapath:    cfg.Datapath,
		XPCap:       cfg.XPCap,
		VOQCap:      cfg.VOQCap,
		OutCap:      cfg.OutCap,
		FaultPolicy: cfg.Policy,
		Flows:       cfg.Flows,
		FlowPolicy:  cfg.FlowPolicy,
		FlowShards:  cfg.FlowShards,
		FlowSeed:    cfg.Seed,
		Classes:     classes,
		Rank:        cfg.Rank,
		ClassQCap:   cfg.ClassQCap,
		OnSlot: func(ev rt.SlotEvent) {
			if grantErr == nil {
				grantErr = plan.checkGrants(ev.Slot, ev.Grants)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	// Driver-side stickiness ledger: flow → last steered port. Cleared
	// after every eviction sweep (an evicted flow may legitimately be
	// re-steered anywhere on return).
	stick := make(map[uint64]int)
	rehome := cfg.Policy == rt.DropStranded
	st := e.Stats()
	var seq uint64
	var classAdmits int
	for slot := int64(0); slot < cfg.Slots; slot++ {
		if err := plan.advance(e, rep); err != nil {
			return rep, err
		}

		// Offered load: n admissions per slot, each with prob Load.
		// Admissions against down links are attempted anyway — ErrPortDown
		// must be the only outcome.
		for i := 0; i < n; i++ {
			if !admitRng.Bool(cfg.Load) {
				continue
			}
			sh := shapes[0]
			if len(shapes) > 1 {
				sh = shapes[shapeRng.Intn(len(shapes))]
			}
			seq++
			req := rt.Request{Src: i, Dst: admitRng.Intn(n), Seq: seq}
			if sh&steered != 0 {
				req.Flow, req.Steered = uint64(zipf.Next()), true
			}
			if sh&classed != 0 {
				classAdmits++
				if cfg.BudgetEvery > 0 && classAdmits%cfg.BudgetEvery == 0 {
					req.Budget = 2
				}
				req.Class, req.Classed = mix.Pick(classRng.Float64()), true
			}
			port, aerr := e.Offer(req)
			if sh&steered != 0 && port >= 0 {
				// Steering resolved (even if the admission itself then
				// failed — Steer's rehome is a side effect that sticks).
				// A move off the previous port is legal only under the
				// rehome pairing and only while that port is down right
				// now: the lazy rehome happens inside this very call, and
				// the engine's fault state mirrors the plan between slots.
				if prev, ok := stick[req.Flow]; ok && prev != port && !(rehome && plan.inDown[prev]) {
					return rep, plan.violation(slot, "flow %d moved %d→%d with input %d up", req.Flow, prev, port, prev)
				}
				stick[req.Flow] = port
			}
			switch {
			case aerr == nil:
				if plan.inDown[port] {
					return rep, plan.violation(slot, "%s frame (dst %d) admitted at down input %d", sh, req.Dst, port)
				}
				if len(shapes) > 1 {
					rep.Shapes[sh]++
				}
			case errors.Is(aerr, rt.ErrBackpressure):
				rep.Backpressured++
			case errors.Is(aerr, flowtable.ErrTableFull):
				if port != -1 {
					return rep, plan.violation(slot, "table-full rejection resolved port %d, want -1", port)
				}
				rep.FlowRejections++
			case errors.Is(aerr, rt.ErrPortDown) && (plan.outDown[req.Dst] || (port >= 0 && plan.inDown[port])):
				// Legal only when the input (the flow's sticky one, if
				// steered) or the destination output is actually down.
				rep.Rejected++
			default:
				return rep, plan.violation(slot, "%s frame (dst %d) at input %d = %v on healthy links", sh, req.Dst, port, aerr)
			}
		}

		e.Tick()
		if grantErr != nil {
			return rep, grantErr
		}

		// Consumers read everything currently deliverable, except stuck
		// and dead ports.
		for j := 0; j < n; j++ {
			if plan.cond[j] == stuckOut || plan.cond[j] == dead {
				continue
			}
			for len(e.Output(j)) > 0 {
				<-e.Output(j)
				rep.Consumed++
			}
		}

		// The churn clock: advance the epoch and sweep idle flows
		// mid-storm. Conservation below must survive every sweep.
		if flowsOn && (slot+1)%cfg.EpochEvery == 0 {
			e.AdvanceFlowEpoch()
			if e.EvictIdleFlows(cfg.FlowIdle) > 0 {
				stick = make(map[uint64]int, len(stick))
			}
		}

		// Conservation, exact: the driver is single-threaded, so the
		// counters are quiescent between slots.
		terms := conserve.Terms{
			Scope:     "engine",
			Slot:      slot,
			Injected:  st.Admitted.Value(),
			Delivered: st.Delivered.Value(),
			Dropped:   st.DroppedFault.Value(),
			Resident:  st.Backlog.Value(),
		}
		if err := terms.Check(); err != nil {
			return rep, fmt.Errorf("chaos: %w (seed %d)", err, cfg.Seed)
		}
		inflight := int64(0)
		for j := 0; j < n; j++ {
			inflight += int64(len(e.Output(j)))
		}
		if terms.Delivered != rep.Consumed+inflight {
			return rep, plan.violation(slot, "delivery accounting broken: delivered %d != consumed %d + in-flight %d",
				terms.Delivered, rep.Consumed, inflight)
		}
		if terms.Resident > rep.MaxBacklog {
			rep.MaxBacklog = terms.Resident
		}
		if flowsOn {
			if f := e.Flows().Stats(); f.Resident != f.Inserted-f.Evicted {
				return rep, plan.violation(slot, "flow ledger broken: resident %d != inserted %d - evicted %d",
					f.Resident, f.Inserted, f.Evicted)
			}
		}
		if classesOn {
			var inVOQ int64
			for _, c := range e.Snapshot().Classes.Classes {
				left := c.Admitted - c.Delivered - c.Dropped - c.Queued
				if left < 0 {
					return rep, plan.violation(slot, "class %s ledger negative: admitted %d < delivered %d + dropped %d + queued %d",
						c.Class, c.Admitted, c.Delivered, c.Dropped, c.Queued)
				}
				inVOQ += left
			}
			if inVOQ > terms.Resident {
				return rep, plan.violation(slot, "classes claim %d VOQ-resident frames, engine backlog is %d", inVOQ, terms.Resident)
			}
		}
	}

	// Shutdown under whatever faults are still active: Close must
	// terminate (the drain's stall detector guarantees it even with dead
	// consumers) and every frame must land in exactly one bucket.
	e.Close()
	for j := 0; j < n; j++ {
		for range e.Output(j) {
			rep.Consumed++
		}
	}
	rep.Admitted = st.Admitted.Value()
	rep.Delivered = st.Delivered.Value()
	rep.Dropped = st.DroppedFault.Value()
	rep.Undrained = st.Undrained.Value()
	if flowsOn {
		f := e.Flows().Stats()
		rep.FlowsInserted, rep.FlowsEvicted, rep.FlowsRebalanced = f.Inserted, f.Evicted, f.Rebalanced
	}
	if classesOn {
		for _, c := range e.Snapshot().Classes.Classes {
			rep.ClassAdmitted += c.Admitted
			rep.ClassDropped += c.Dropped
			rep.ClassViolations += c.Violations
		}
	}
	shutdown := conserve.Terms{
		Scope:     "engine shutdown",
		Slot:      cfg.Slots,
		Injected:  rep.Admitted,
		Delivered: rep.Consumed,
		Dropped:   rep.Dropped,
		Resident:  rep.Undrained,
	}
	if err := shutdown.Check(); err != nil {
		return rep, fmt.Errorf("chaos: %w (seed %d)", err, cfg.Seed)
	}
	// With every shape classified, every engine admission passed the rank
	// stage, so the tier's per-class totals must sum to the engine's.
	if classesOn && (!flowsOn || cfg.ComposedOnly) && rep.ClassAdmitted != rep.Admitted {
		return rep, plan.violation(cfg.Slots, "class tier admitted %d, engine %d", rep.ClassAdmitted, rep.Admitted)
	}
	return rep, nil
}
