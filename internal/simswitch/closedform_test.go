package simswitch_test

// The closed-form queueing results below are what the switch literature
// uses to sanity-check simulators — most importantly the output-queued
// switch delay of Karol, Hluchyj and Morgan ("Input versus Output
// Queueing on a Space-Division Packet Switch", IEEE Trans. Comm. 1987 —
// the paper's reference [8]). The simulator's `outbuf` curve of Figure
// 12a must match these formulas (analysis_test.go), which gives the
// reproduction an anchor that does not depend on the paper's
// (unpublished) simulator.

import (
	"fmt"
	"math"
)

// OutputQueueWait returns the mean steady-state waiting time (in slots,
// excluding the 1-slot service) of a packet in an output-buffered N-port
// switch with i.i.d. Bernoulli(p) arrivals per input and uniform
// destinations — Karol et al. (1987), eq. (2):
//
//	W = (N-1)/N · p / (2(1-p))
//
// For N→∞ this is the M/D/1 queue's waiting time; the (N-1)/N factor is
// the finite-switch (binomial-arrival) correction. p must be in [0,1).
func OutputQueueWait(n int, p float64) float64 {
	if n <= 0 {
		panic(fmt.Sprintf("closed form: non-positive port count %d", n))
	}
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("closed form: load %g outside [0,1)", p))
	}
	return float64(n-1) / float64(n) * p / (2 * (1 - p))
}

// OutputQueueDelay returns the mean total queuing delay (wait + the
// 1-slot transfer) of the output-buffered switch, directly comparable to
// the simulator's outbuf measurements.
func OutputQueueDelay(n int, p float64) float64 {
	return 1 + OutputQueueWait(n, p)
}

// FIFOSaturationThroughput returns the head-of-line-blocking saturation
// throughput of a FIFO input-queued switch. Karol et al. derive
// 2−√2 ≈ 0.586 for N→∞; for small N the exact values are higher (0.75
// for N=2, decreasing monotonically). The N→∞ figure is returned for
// N ≥ 8, where it is accurate to within ~2%, and the exact tabulated
// values for smaller N.
func FIFOSaturationThroughput(n int) float64 {
	if n <= 0 {
		panic(fmt.Sprintf("closed form: non-positive port count %d", n))
	}
	// Karol et al., Table I.
	exact := map[int]float64{1: 1.0, 2: 0.75, 3: 0.6825, 4: 0.6553, 5: 0.6399, 6: 0.6302, 7: 0.6234}
	if v, ok := exact[n]; ok {
		return v
	}
	return 2 - math.Sqrt2
}

// PIMExpectedIterations returns the upper bound Anderson et al. prove for
// PIM's expected convergence: E[iterations] ≤ log2(n) + 4/3. The paper's
// Section 6.2 leans on this O(log n) bound when comparing the distributed
// scheduler's time complexity with the central scheduler's O(n).
func PIMExpectedIterations(n int) float64 {
	if n <= 0 {
		panic(fmt.Sprintf("closed form: non-positive port count %d", n))
	}
	return math.Log2(float64(n)) + 4.0/3.0
}

// LCFFairnessBound returns the guaranteed fraction of an output port's
// bandwidth each requester/resource pair receives under the given
// round-robin discipline (Section 3): 0 for pure LCF, 1/n² for the
// interleaved Figure 2 diagonal, 1/n for the prescheduled diagonal.
func LCFFairnessBound(n int, discipline string) (float64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("closed form: non-positive port count %d", n)
	}
	switch discipline {
	case "none":
		return 0, nil
	case "interleaved":
		return 1 / float64(n*n), nil
	case "prescheduled":
		return 1 / float64(n), nil
	default:
		return 0, fmt.Errorf("closed form: unknown round-robin discipline %q", discipline)
	}
}
