package simswitch_test

import (
	"math"
	"testing"

	"repro/internal/sched/fifosched"
	"repro/internal/simswitch"
	"repro/internal/traffic"
)

func TestOutputQueueWaitKnownValues(t *testing.T) {
	// N→∞, p=0.5: M/D/1 wait = 0.5/(2·0.5) = 0.5; finite-N correction
	// scales by (N-1)/N.
	if got := OutputQueueWait(16, 0.5); math.Abs(got-0.5*15.0/16.0) > 1e-12 {
		t.Fatalf("W(16, 0.5) = %g", got)
	}
	if got := OutputQueueWait(2, 0.8); math.Abs(got-0.5*0.8/(2*0.2)) > 1e-12 {
		t.Fatalf("W(2, 0.8) = %g", got)
	}
	if got := OutputQueueWait(16, 0); got != 0 {
		t.Fatalf("W at zero load = %g", got)
	}
	if OutputQueueDelay(16, 0) != 1 {
		t.Fatal("delay at zero load must be the 1-slot transfer")
	}
}

func TestOutputQueueWaitMonotone(t *testing.T) {
	prev := -1.0
	for p := 0.0; p < 0.95; p += 0.05 {
		w := OutputQueueWait(16, p)
		if w <= prev && p > 0 {
			t.Fatalf("W not increasing at p=%g", p)
		}
		prev = w
	}
}

func TestOutputQueuePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { OutputQueueWait(0, 0.5) },
		func() { OutputQueueWait(16, 1.0) },
		func() { OutputQueueWait(16, -0.1) },
		func() { FIFOSaturationThroughput(0) },
		func() { PIMExpectedIterations(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid parameter did not panic")
				}
			}()
			fn()
		}()
	}
}

// TestSimulatorMatchesKarolFormula anchors the whole simulator to theory:
// the measured outbuf delay must match the Karol et al. closed form
// within a few percent across the stable load range.
func TestSimulatorMatchesKarolFormula(t *testing.T) {
	for _, p := range []float64{0.3, 0.5, 0.7, 0.85} {
		res, err := simswitch.Run(simswitch.Config{
			N:            16,
			Mode:         simswitch.OutputBuffered,
			Gen:          traffic.NewBernoulli(16, p, traffic.NewUniform(16), 99),
			WarmupSlots:  5000,
			MeasureSlots: 40000,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := OutputQueueDelay(16, p)
		got := res.Delay.Mean()
		if math.Abs(got-want)/want > 0.04 {
			t.Errorf("load %g: simulated outbuf delay %.3f vs Karol formula %.3f (>4%% off)", p, got, want)
		}
	}
}

// TestSimulatorMatchesFIFOSaturation anchors the FIFO organization: the
// measured saturation throughput must approach Karol's 2−√2.
func TestSimulatorMatchesFIFOSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	res, err := simswitch.Run(simswitch.Config{
		N:            16,
		Mode:         simswitch.FIFO,
		Scheduler:    fifosched.New(16),
		Gen:          traffic.NewBernoulli(16, 1.0, traffic.NewUniform(16), 5),
		WarmupSlots:  5000,
		MeasureSlots: 30000,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := FIFOSaturationThroughput(16)
	got := res.Counters.Throughput()
	if math.Abs(got-want)/want > 0.06 {
		t.Errorf("FIFO saturation throughput %.3f vs Karol %.3f (>6%% off)", got, want)
	}
}

func TestFIFOSaturationValues(t *testing.T) {
	if got := FIFOSaturationThroughput(2); got != 0.75 {
		t.Fatalf("N=2 saturation %g", got)
	}
	if got := FIFOSaturationThroughput(16); math.Abs(got-(2-math.Sqrt2)) > 1e-12 {
		t.Fatalf("N=16 saturation %g", got)
	}
	// Monotone non-increasing over the tabulated range.
	prev := 1.1
	for n := 1; n <= 10; n++ {
		v := FIFOSaturationThroughput(n)
		if v > prev {
			t.Fatalf("saturation increased at n=%d", n)
		}
		prev = v
	}
}

func TestPIMExpectedIterations(t *testing.T) {
	if got := PIMExpectedIterations(16); math.Abs(got-(4+4.0/3.0)) > 1e-12 {
		t.Fatalf("E[iters](16) = %g", got)
	}
}

func TestLCFFairnessBound(t *testing.T) {
	cases := []struct {
		disc string
		want float64
	}{{"none", 0}, {"interleaved", 1.0 / 256}, {"prescheduled", 1.0 / 16}}
	for _, c := range cases {
		got, err := LCFFairnessBound(16, c.disc)
		if err != nil || got != c.want {
			t.Fatalf("bound(16, %s) = %g, %v", c.disc, got, err)
		}
	}
	if _, err := LCFFairnessBound(16, "junk"); err == nil {
		t.Fatal("junk discipline accepted")
	}
	if _, err := LCFFairnessBound(0, "none"); err == nil {
		t.Fatal("zero ports accepted")
	}
}
