package main

import (
	"errors"
	"fmt"

	lcf "repro"
	"repro/internal/flowtable"
	"repro/internal/rng"
	rt "repro/internal/runtime"
	"repro/internal/traffic"
)

// The flow study drives the same idle-eviction epoch clock lcfd runs,
// counted in slots: every evictEvery slots the epoch advances and flows idle for more than
// idleEpochs epochs are evicted. Churn is what separates the policies —
// an evicted mouse's next frame is a fresh steering decision against
// live backlogs, so adaptive policies keep correcting while hash
// re-picks the same port forever.
const (
	evictEvery = 64
	idleEpochs = 2
)

// flowStudy parameterizes one E31 sweep: the live lockstep engine under
// Zipf-skewed flow traffic, with each steering policy of
// internal/flowtable driven through the identical arrival sequence so
// the columns differ only in where new flows land.
type flowStudy struct {
	study
	Flows    int // concurrent flow population (table capacity is 2×)
	Skew     float64
	Policies []string
}

// flowRow is one policy's measured line.
type flowRow struct {
	Policy     string
	Delivered  int64   // frames consumed during the measured window
	Throughput float64 // delivered / (n × measured slots)
	MeanDelay  float64 // queuing delay in slots, measured deliveries
	Imbalance  float64 // mean over slots of max/mean per-input backlog
	MaxBacklog int64   // peak single-input VOQ backlog
	PortJain   float64 // Jain index over per-port resident-flow counts
	Resident   int64   // flows resident at shutdown
	Rejected   int64   // steer-stage refusals (table full)
}

// runPolicy drives one policy through warmup+measure lockstep slots.
// Every policy sees the identical arrival sequence: the Zipf and
// admission RNG streams are re-seeded per run, and the flow table's own
// seed is fixed, so the only degree of freedom is the steering decision.
func runPolicy(s flowStudy, policy string) (flowRow, error) {
	r := flowRow{Policy: policy}
	e, err := s.engine(rt.Spec{
		// 2× headroom: the study measures steering quality, not table
		// sizing, so the population must fit without rejections.
		Flows:      2 * s.Flows,
		FlowPolicy: policy,
		FlowSeed:   s.Seed,
	})
	if err != nil {
		return r, err
	}
	defer e.Close()

	zipf := traffic.NewZipf(s.Flows, s.Skew, s.Seed^0xE31)
	admit := rng.NewPCG32(s.Seed, 0xE31)
	st := e.Stats()
	var seq uint64
	var delaySum float64
	for slot := int64(0); slot < s.Warmup+s.Measure; slot++ {
		for k := 0; k < s.N; k++ {
			if !admit.Bool(s.Load) {
				continue
			}
			id := uint64(zipf.Next())
			dst := admit.Intn(s.N)
			seq++
			switch _, aerr := e.Offer(rt.Request{Dst: dst, Seq: seq, Flow: id, Steered: true}); {
			case aerr == nil:
			case errors.Is(aerr, rt.ErrBackpressure):
			case errors.Is(aerr, flowtable.ErrTableFull):
				r.Rejected++
			default:
				return r, fmt.Errorf("policy %s: slot %d: Offer: %v", policy, slot, aerr)
			}
		}
		measured := slot >= s.Warmup
		tick(e, func(f rt.Frame) {
			if measured {
				r.Delivered++
				delaySum += float64(f.Departed - f.Admitted)
			}
		})
		if (slot+1)%evictEvery == 0 {
			e.AdvanceFlowEpoch()
			e.EvictIdleFlows(idleEpochs)
		}
		if measured {
			var tot, max int64
			for p := 0; p < s.N; p++ {
				v := st.PerInputBacklog[p].Value()
				tot += v
				if v > max {
					max = v
				}
			}
			if max > r.MaxBacklog {
				r.MaxBacklog = max
			}
			if tot > 0 {
				r.Imbalance += float64(max) * float64(s.N) / float64(tot)
			} else {
				r.Imbalance++ // idle slot: perfectly even by definition
			}
		}
	}
	if r.Delivered > 0 {
		r.MeanDelay = delaySum / float64(r.Delivered)
	}
	r.Throughput = float64(r.Delivered) / float64(s.N) / float64(s.Measure)
	r.Imbalance /= float64(s.Measure)
	// Jain over per-port resident-flow counts: 1 means every input hosts
	// the same number of flows. (Fairness.Jain itself is per-flow service,
	// which the Zipf popularity dominates identically for every policy.)
	fair := e.Flows().Fairness()
	var sum, sumSq float64
	for _, c := range fair.FlowsPerPort {
		sum += float64(c)
		sumSq += float64(c) * float64(c)
	}
	if sumSq > 0 {
		r.PortJain = sum * sum / (float64(len(fair.FlowsPerPort)) * sumSq)
	}
	r.Resident = e.Flows().Resident()
	return r, nil
}

// runFlowStudy sweeps every requested policy over the same arrival
// sequence.
func runFlowStudy(s flowStudy) ([]flowRow, error) {
	rows := make([]flowRow, 0, len(s.Policies))
	for _, policy := range s.Policies {
		r, err := runPolicy(s, policy)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// runFlows is -figure flows: EXPERIMENTS.md E31. Per policy it reports
// delivered frames, mean queuing delay, the per-input backlog imbalance
// (max/mean over inputs, averaged over measured slots — the quantity po2
// exists to minimize), the peak single-input backlog, and the Jain
// fairness index over per-port flow counts.
func runFlows(cfg lcf.SweepConfig, o options) {
	s := flowStudy{study: studyOf(cfg, 0.7), Flows: o.flows, Skew: o.skew, Policies: o.policies}
	if s.Flows <= 0 {
		usage("-flows must be positive (got %d)", s.Flows)
	}
	if s.Skew < 0 {
		usage("-skew must be >= 0 (got %g)", s.Skew)
	}
	for _, p := range s.Policies {
		if _, err := flowtable.NewPolicy(p); err != nil {
			usage("-policies: %v", err)
		}
	}
	rows, err := runFlowStudy(s)
	if err != nil {
		fatal("%v", err)
	}
	if o.csv {
		fmt.Println("policy,delivered,throughput,mean_delay,backlog_imbalance,max_backlog,port_jain,resident,rejected")
		for _, r := range rows {
			fmt.Printf("%s,%d,%.4f,%.3f,%.3f,%d,%.4f,%d,%d\n",
				r.Policy, r.Delivered, r.Throughput, r.MeanDelay, r.Imbalance, r.MaxBacklog, r.PortJain, r.Resident, r.Rejected)
		}
		return
	}
	fmt.Printf("E31 — flow steering: per-input backlog imbalance and delay per policy\n")
	fmt.Printf("(n=%d, %d flows zipf(%g), load %.2f, warmup %d, measured %d slots, scheduler %s, seed %d)\n\n",
		s.N, s.Flows, s.Skew, s.Load, s.Warmup, s.Measure, s.Scheduler, s.Seed)
	fmt.Printf("%-8s %10s %8s %12s %12s %12s %8s %10s %10s\n",
		"policy", "delivered", "thrpt", "mean delay", "max/mean bl", "max backlog", "port jain", "resident", "rejected")
	for _, r := range rows {
		fmt.Printf("%-8s %10d %8.4f %12.3f %12.3f %12d %8.4f %10d %10d\n",
			r.Policy, r.Delivered, r.Throughput, r.MeanDelay, r.Imbalance, r.MaxBacklog, r.PortJain, r.Resident, r.Rejected)
	}
}
