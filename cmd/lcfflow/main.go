// Command lcfflow runs the flow-steering study (EXPERIMENTS.md E31):
// the live lockstep engine under Zipf-skewed flow traffic, with each
// steering policy of internal/flowtable driven through the identical
// arrival sequence so the columns differ only in where new flows land.
// Per policy it reports delivered frames, mean queuing delay, the
// per-input backlog imbalance (max/mean over inputs, averaged over
// measured slots — the quantity po2 exists to minimize), the peak
// single-input backlog, and the Jain fairness index over per-port flow
// counts.
//
// Usage:
//
//	lcfflow -flows 100000 -skew 1.1 -seed 42
//	lcfflow -n 8 -flows 1000000 -load 0.95 -policies hash,po2 -csv
//
// All runs are deterministic for a given -seed: the arrival stream is
// regenerated from the same PCG32 streams for every policy.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/flowtable"
	"repro/internal/rng"
	rt "repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/sched/registry"
	"repro/internal/traffic"
)

// studyConfig parameterizes one E31 sweep.
type studyConfig struct {
	N         int
	Flows     int // concurrent flow population (table capacity is 2×)
	Skew      float64
	Load      float64
	Warmup    int64
	Measure   int64
	Policies  []string
	Scheduler string
	Seed      uint64
	// EvictEvery/Idle drive the same idle-eviction epoch clock lcfd runs:
	// every EvictEvery slots the epoch advances and flows idle for more
	// than Idle epochs are evicted. Churn is what separates the policies —
	// an evicted mouse's next frame is a fresh steering decision against
	// live backlogs, so adaptive policies keep correcting while hash
	// re-picks the same port forever. 0 disables eviction.
	EvictEvery int64
	Idle       uint32
}

// row is one policy's measured line.
type row struct {
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
func runPolicy(cfg studyConfig, policy string) (row, error) {
	r := row{Policy: policy}
	sch, err := registry.New(cfg.Scheduler, cfg.N, sched.Options{Iterations: 4, Seed: cfg.Seed})
	if err != nil {
		return r, err
	}
	e, err := rt.New(rt.Config{
		N:         cfg.N,
		Scheduler: sch,
		// 2× headroom: the study measures steering quality, not table
		// sizing, so the population must fit without rejections.
		Flows:      2 * cfg.Flows,
		FlowPolicy: policy,
		FlowSeed:   cfg.Seed,
	})
	if err != nil {
		return r, err
	}
	defer e.Close()

	zipf := traffic.NewZipf(cfg.Flows, cfg.Skew, cfg.Seed^0xE31)
	admit := rng.NewPCG32(cfg.Seed, 0xE31)
	st := e.Stats()
	var seq uint64
	var delaySum float64
	total := cfg.Warmup + cfg.Measure
	for slot := int64(0); slot < total; slot++ {
		for k := 0; k < cfg.N; k++ {
			if !admit.Bool(cfg.Load) {
				continue
			}
			id := uint64(zipf.Next())
			dst := admit.Intn(cfg.N)
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
		e.Tick()
		if cfg.EvictEvery > 0 && (slot+1)%cfg.EvictEvery == 0 {
			e.AdvanceFlowEpoch()
			e.EvictIdleFlows(cfg.Idle)
		}
		for j := 0; j < cfg.N; j++ {
			for {
				select {
				case f := <-e.Output(j):
					if slot >= cfg.Warmup {
						r.Delivered++
						delaySum += float64(f.Departed - f.Admitted)
					}
					continue
				default:
				}
				break
			}
		}
		if slot >= cfg.Warmup {
			var tot, max int64
			for p := 0; p < cfg.N; p++ {
				v := st.PerInputBacklog[p].Value()
				tot += v
				if v > max {
					max = v
				}
			}
			if v := max; v > r.MaxBacklog {
				r.MaxBacklog = v
			}
			if tot > 0 {
				r.Imbalance += float64(max) * float64(cfg.N) / float64(tot)
			} else {
				r.Imbalance++ // idle slot: perfectly even by definition
			}
		}
	}
	if r.Delivered > 0 {
		r.MeanDelay = delaySum / float64(r.Delivered)
	}
	r.Throughput = float64(r.Delivered) / float64(cfg.N) / float64(cfg.Measure)
	r.Imbalance /= float64(cfg.Measure)
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

// runStudy sweeps every requested policy over the same arrival sequence.
func runStudy(cfg studyConfig) ([]row, error) {
	rows := make([]row, 0, len(cfg.Policies))
	for _, policy := range cfg.Policies {
		r, err := runPolicy(cfg, policy)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

func main() {
	var (
		n          = flag.Int("n", 16, "switch port count")
		flows      = flag.Int("flows", 100_000, "flow-id population (steering table is sized 2x)")
		skew       = flag.Float64("skew", 0.8, "Zipf popularity exponent (0 = uniform)")
		load       = flag.Float64("load", 0.7, "offered load per port")
		warmup     = flag.Int64("warmup", 3_000, "warmup slots (not measured)")
		measure    = flag.Int64("measure", 10_000, "measured slots")
		policies   = flag.String("policies", strings.Join(flowtable.Names(), ","), "comma-separated steering policies to compare")
		evictEvery = flag.Int64("evict-every", 64, "advance the idle-eviction epoch every this many slots (0 = never evict)")
		idle       = flag.Uint("idle", 2, "evict flows idle for more than this many epochs")
		schedN     = flag.String("scheduler", "lcf_central_rr", "sched registry name for the crossbar scheduler")
		seed       = flag.Uint64("seed", 42, "base RNG seed")
		csv        = flag.Bool("csv", false, "emit CSV instead of an aligned table")
	)
	flag.Parse()

	if *n <= 0 {
		fatalUsage("-n must be positive (got %d)", *n)
	}
	if *flows <= 0 {
		fatalUsage("-flows must be positive (got %d)", *flows)
	}
	if *skew < 0 {
		fatalUsage("-skew must be >= 0 (got %g)", *skew)
	}
	if *load <= 0 || *load > 1 {
		fatalUsage("-load must be in (0,1] (got %g)", *load)
	}
	if *warmup < 0 || *measure <= 0 {
		fatalUsage("-warmup must be >= 0 and -measure positive (got %d, %d)", *warmup, *measure)
	}
	if *evictEvery < 0 {
		fatalUsage("-evict-every must be >= 0 (got %d)", *evictEvery)
	}
	cfg := studyConfig{
		N: *n, Flows: *flows, Skew: *skew, Load: *load,
		Warmup: *warmup, Measure: *measure,
		Policies: strings.Split(*policies, ","), Scheduler: *schedN, Seed: *seed,
		EvictEvery: *evictEvery, Idle: uint32(*idle),
	}
	for _, p := range cfg.Policies {
		if _, err := flowtable.NewPolicy(p); err != nil {
			fatalUsage("-policies: %v", err)
		}
	}

	rows, err := runStudy(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lcfflow: %v\n", err)
		os.Exit(1)
	}
	if *csv {
		fmt.Println("policy,delivered,throughput,mean_delay,backlog_imbalance,max_backlog,port_jain,resident,rejected")
		for _, r := range rows {
			fmt.Printf("%s,%d,%.4f,%.3f,%.3f,%d,%.4f,%d,%d\n",
				r.Policy, r.Delivered, r.Throughput, r.MeanDelay, r.Imbalance, r.MaxBacklog, r.PortJain, r.Resident, r.Rejected)
		}
		return
	}
	fmt.Printf("E31 — flow steering: per-input backlog imbalance and delay per policy\n")
	fmt.Printf("(n=%d, %d flows zipf(%g), load %.2f, warmup %d, measured %d slots, scheduler %s, seed %d)\n\n",
		cfg.N, cfg.Flows, cfg.Skew, cfg.Load, cfg.Warmup, cfg.Measure, cfg.Scheduler, cfg.Seed)
	fmt.Printf("%-8s %10s %8s %12s %12s %12s %8s %10s %10s\n",
		"policy", "delivered", "thrpt", "mean delay", "max/mean bl", "max backlog", "port jain", "resident", "rejected")
	for _, r := range rows {
		fmt.Printf("%-8s %10d %8.4f %12.3f %12.3f %12d %8.4f %10d %10d\n",
			r.Policy, r.Delivered, r.Throughput, r.MeanDelay, r.Imbalance, r.MaxBacklog, r.PortJain, r.Resident, r.Rejected)
	}
}

// fatalUsage exits with status 2, the conventional code for command-line
// usage errors.
func fatalUsage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lcfflow: "+format+"\n", args...)
	os.Exit(2)
}
