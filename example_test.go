package lcf_test

import (
	"fmt"

	lcf "repro"
)

// ExampleSchedule walks the paper's Figure 3: one central LCF scheduling
// cycle on a 4×4 switch with the round-robin diagonal at [I1,T0].
func ExampleSchedule() {
	req := lcf.NewRequestMatrix(4)
	for _, p := range [][2]int{{0, 1}, {0, 2}, {1, 0}, {1, 2}, {1, 3}, {2, 0}, {2, 2}, {2, 3}, {3, 1}} {
		req.Set(p[0], p[1])
	}
	s, _ := lcf.NewScheduler("lcf_central_rr", 4, lcf.Options{})
	s.(interface{ SetOffsets(i, j int) }).SetOffsets(1, 0)

	m := lcf.NewMatch(4)
	lcf.Schedule(s, req, m)
	for i, j := range m.InToOut {
		fmt.Printf("I%d→T%d\n", i, j)
	}
	// Output:
	// I0→T2
	// I1→T0
	// I2→T3
	// I3→T1
}

// ExampleSimulate measures the mean queuing delay of the central LCF
// scheduler on a 16-port switch at 50% load, as in Figure 12a.
func ExampleSimulate() {
	s, _ := lcf.NewScheduler("lcf_central_rr", 16, lcf.Options{})
	res, _ := lcf.Simulate(lcf.SimConfig{
		N:            16,
		Scheduler:    s,
		Load:         0.5,
		Seed:         42,
		WarmupSlots:  2000,
		MeasureSlots: 20000,
	})
	fmt.Printf("delay within a slot of the ideal: %v\n", res.Delay.Mean() < 2.0)
	fmt.Printf("throughput matches offered load: %v\n", res.Counters.Throughput() > 0.49)
	// Output:
	// delay within a slot of the ideal: true
	// throughput matches offered load: true
}

// ExampleHardwareCostTable1 reproduces the paper's Table 1 totals for the
// 16-port Clint implementation.
func ExampleHardwareCostTable1() {
	t := lcf.HardwareCostTable1(16)
	fmt.Printf("%d gates, %d registers\n", t.TotalGates, t.TotalRegs)
	// Output:
	// 7967 gates, 1592 registers
}

// ExampleSchedulingTasksTable2 reproduces the paper's Table 2 cycle
// decomposition at the implementation's 66 MHz clock.
func ExampleSchedulingTasksTable2() {
	for _, task := range lcf.SchedulingTasksTable2(16, lcf.ClockHz) {
		fmt.Printf("%s (%s): %d cycles\n", task.Name, task.Decomposition, task.Cycles)
	}
	// Output:
	// Check prec. schedule (2n+1): 33 cycles
	// Calculate LCF schedule (3n+2): 50 cycles
	// Total (5n+3): 83 cycles
}

// ExampleSweep runs a two-point load sweep and normalizes against the
// output-buffered reference, the Figure 12b transformation.
func ExampleSweep() {
	res, _ := lcf.Sweep(lcf.SweepConfig{
		N:            8,
		Schedulers:   []string{"lcf_central", lcf.OutbufName},
		Loads:        []float64{0.5},
		Seed:         7,
		WarmupSlots:  1000,
		MeasureSlots: 10000,
	})
	rel, _ := res.RelativeTo(lcf.OutbufName)
	p := rel["lcf_central"][0]
	fmt.Printf("lcf_central within 25%% of output buffering at load 0.5: %v\n",
		p.MeanDelay < 1.25)
	// Output:
	// lcf_central within 25% of output buffering at load 0.5: true
}

// ExampleNewCentralLCF_fairness shows Section 3's throughput/fairness
// trade-off under adversarial demand on an 8-port switch: input 0
// requests every output while each input i > 0 requests only output i,
// so at every contested output input 0 has strictly more choices. Pure
// LCF never grants the pair (I0,T7); the Figure 2 diagonal guarantees it
// once per n² = 64 cycles; the prescheduled diagonal serves it once per
// ≈n cycles, trading a few total grants for the stronger bound.
func ExampleNewCentralLCF_fairness() {
	const n, cycles, contested = 8, 10 * 8 * 8, 7
	req := lcf.NewRequestMatrix(n)
	for j := 0; j < n; j++ {
		req.Set(0, j)
	}
	for i := 1; i < n; i++ {
		req.Set(i, i)
	}

	fmt.Printf("%-18s %11s %10s %12s\n", "scheduler", "pair grants", "worst gap", "total grants")
	for _, mode := range []lcf.CentralRRMode{lcf.RRNone, lcf.RRInterleaved, lcf.RRPrescheduled} {
		s := lcf.NewCentralLCF(n, mode)
		m := lcf.NewMatch(n)
		pairGrants, totalGrants, worstGap, last := 0, 0, 0, -1
		for c := 0; c < cycles; c++ {
			lcf.Schedule(s, req, m)
			if err := lcf.ValidateMatch(m, req); err != nil {
				fmt.Println(err)
				return
			}
			totalGrants += m.Size()
			if m.InToOut[0] == contested {
				pairGrants++
				if last >= 0 && c-last > worstGap {
					worstGap = c - last
				}
				last = c
			}
		}
		gap := "never"
		if pairGrants > 0 {
			gap = fmt.Sprint(worstGap)
		}
		fmt.Printf("%-18s %11d %10s %12d\n", s.Name(), pairGrants, gap, totalGrants)
	}
	// Output:
	// scheduler          pair grants  worst gap total grants
	// lcf_central                  0      never         5120
	// lcf_central_rr              70         18         4840
	// lcf_central_rrpre           80          9         4560
}
