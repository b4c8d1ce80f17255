package runtime_test

import (
	"fmt"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	rt "repro/internal/runtime"
	"repro/internal/switchcore"
)

// parkTimeout bounds every wait in this file: a wake-up the arbiter
// missed shows up as one of these expiring, never as a hang.
const parkTimeout = 2 * time.Second

// startLive builds and starts a live engine; cfg carries the slot period.
func startLive(t *testing.T, cfg rt.Config) *rt.Engine {
	t.Helper()
	if cfg.Datapath != switchcore.DatapathCICQ {
		cfg.Scheduler = newScheduler(t, "lcf_central_rr", cfg.N)
	}
	e, err := rt.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	return e
}

// waitParks blocks until the arbiter has parked at least want times.
func waitParks(t *testing.T, e *rt.Engine, want int64) {
	t.Helper()
	deadline := time.Now().Add(parkTimeout)
	for e.Stats().Parks.Value() < want {
		if time.Now().After(deadline) {
			t.Fatalf("arbiter parked %d times within %v, want %d", e.Stats().Parks.Value(), parkTimeout, want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// receive takes one frame from output j or fails the test on timeout.
func receive(t *testing.T, e *rt.Engine, j int) rt.Frame {
	t.Helper()
	select {
	case f, ok := <-e.Output(j):
		if !ok {
			t.Fatalf("output %d closed", j)
		}
		return f
	case <-time.After(parkTimeout):
		t.Fatalf("no delivery on output %d within %v (backlog %d, parks %d)",
			j, parkTimeout, e.Stats().Backlog.Value(), e.Stats().Parks.Value())
		panic("unreachable")
	}
}

// TestIdleEngineRunsNoSlots: a started engine with nothing queued stops
// its slot clock — the slot counter stands still over a thousand slot
// periods — while still owning one goroutine and no more, and the first
// frame after the park is delivered.
func TestIdleEngineRunsNoSlots(t *testing.T) {
	base := goruntime.NumGoroutine()
	e := startLive(t, rt.Config{N: 4, SlotPeriod: 50 * time.Microsecond})
	defer e.Close()
	waitParks(t, e, 1)

	before := e.Slot()
	time.Sleep(50 * time.Millisecond)
	if after := e.Slot(); after != before {
		t.Errorf("idle engine ran %d slots in 50 ms", after-before)
	}
	if got := goruntime.NumGoroutine(); got > base+1 {
		t.Errorf("%d goroutines with a parked engine, %d before New: want at most one more", got, base)
	}

	if err := e.Admit(1, 2, 7, 0); err != nil {
		t.Fatal(err)
	}
	if f := receive(t, e, 2); f.Seq != 7 || f.Src != 1 {
		t.Fatalf("first frame after the park: %+v", f)
	}
	waitParks(t, e, 2) // empty again: parks again, the delivering slot complete
	if e.Slot() == before {
		t.Error("slot counter did not move for the delivered frame")
	}
}

// TestParkWakeStress is the lost-wake-up hunt: every producer admits one
// frame and waits for its delivery before the next, so the switch empties
// — and the arbiter parks — between frames, thousands of times. A wake-up
// lost between the arbiter's emptiness check and its block leaves a frame
// queued with nobody to serve it, which the delivery timeout reports.
// Eight producers collide admissions with each other and with the park;
// the solo leg is the sharp one, because there no later admission rescues
// a frame whose wake-up went missing (with park's re-check removed it
// fails within a few thousand rounds, the eight-producer leg never).
// Every admission door, both datapaths, at a 1 µs slot so a round costs
// microseconds.
func TestParkWakeStress(t *testing.T) {
	const n = 8
	doors := []struct {
		name  string
		cfg   rt.Config
		admit func(e *rt.Engine, p int, seq uint64) error
	}{
		{"Admit", rt.Config{}, func(e *rt.Engine, p int, seq uint64) error {
			return e.Admit(p, p, seq, 0)
		}},
		// The steered shape of Offer; the leg keeps the name of the door it
		// replaced.
		{"AdmitFlow", rt.Config{Flows: 64}, func(e *rt.Engine, p int, seq uint64) error {
			_, err := offerFlow(e, uint64(p), p, seq)
			return err
		}},
		{"AdmitClass", rt.Config{Classes: testClassList()}, func(e *rt.Engine, p int, seq uint64) error {
			return e.AdmitClass(p, p, p%3, seq, 0, 0)
		}},
		{"OfferComposed", rt.Config{Flows: 64, Classes: testClassList()}, func(e *rt.Engine, p int, seq uint64) error {
			_, err := e.Offer(rt.Request{Dst: p, Seq: seq, Flow: uint64(p), Steered: true, Class: p % 3, Classed: true})
			return err
		}},
	}
	legs := []struct{ producers, rounds int }{{n, 2000}, {1, 4000}}
	for _, door := range doors {
		for _, dp := range switchcore.Names() {
			for _, leg := range legs {
				producers, rounds := leg.producers, uint64(leg.rounds)
				t.Run(fmt.Sprintf("%s/%s/producers=%d", door.name, dp, producers), func(t *testing.T) {
					cfg := door.cfg
					cfg.N, cfg.Datapath, cfg.SlotPeriod = n, dp, time.Microsecond
					e := startLive(t, cfg)
					defer e.Close()

					errs := make(chan error, producers)
					var wg sync.WaitGroup
					for p := 0; p < producers; p++ {
						wg.Add(1)
						go func(p int) {
							defer wg.Done()
							for seq := uint64(0); seq < rounds; seq++ {
								if err := door.admit(e, p, seq); err != nil {
									errs <- fmt.Errorf("producer %d round %d: %w", p, seq, err)
									return
								}
								select {
								case f := <-e.Output(p):
									if f.Seq != seq {
										errs <- fmt.Errorf("producer %d: delivered seq %d, want %d", p, f.Seq, seq)
										return
									}
								case <-time.After(parkTimeout):
									errs <- fmt.Errorf("producer %d round %d: frame not delivered within %v (backlog %d, parks %d)",
										p, seq, parkTimeout, e.Stats().Backlog.Value(), e.Stats().Parks.Value())
									return
								}
							}
						}(p)
					}
					wg.Wait()
					close(errs)
					for err := range errs {
						t.Error(err)
					}
					if parks := e.Stats().Parks.Value(); parks == 0 {
						t.Error("the arbiter never parked: the stress exercised no wake-up")
					} else {
						t.Logf("%d frames, %d parks, %d slots", uint64(producers)*rounds, parks, e.Slot())
					}
				})
			}
		}
	}
}

// TestParkedEngineAppliesFaults: a link transition wakes a parked arbiter
// by itself — FailPort and Recover are folded into the datapath (and
// traced) within a bounded time with no admission to carry them.
func TestParkedEngineAppliesFaults(t *testing.T) {
	const n = 4
	tr := obs.NewTracer(n, 64)
	tr.Enable()
	e := startLive(t, rt.Config{N: n, Tracer: tr, SlotPeriod: 50 * time.Microsecond})
	defer e.Close()

	faultEvents := func(want int) []obs.Event {
		t.Helper()
		deadline := time.Now().Add(parkTimeout)
		for {
			var faults []obs.Event
			for _, ev := range tr.Drain() {
				if ev.Kind == "fault" {
					faults = append(faults, ev)
				}
			}
			if len(faults) >= want {
				return faults
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d fault events traced within %v, want %d", len(faults), parkTimeout, want)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	waitParks(t, e, 1)
	parks := e.Stats().Parks.Value()
	if err := e.FailPort(2); err != nil {
		t.Fatal(err)
	}
	for _, ev := range faultEvents(2) {
		if ev.Port != 2 || ev.State != "down" {
			t.Errorf("fault event %+v, want port 2 down", ev)
		}
	}
	waitParks(t, e, parks+1) // transitions applied, still empty: parked again
	if err := e.Recover(2); err != nil {
		t.Fatal(err)
	}
	if evs := faultEvents(4); evs[2].State != "up" || evs[3].State != "up" {
		t.Errorf("recovery events %+v %+v, want both up", evs[2], evs[3])
	}
	if err := e.Admit(0, 2, 1, 0); err != nil {
		t.Fatalf("admit toward the recovered port: %v", err)
	}
	receive(t, e, 2)
}

// TestCloseParkedEngine: Close on a parked arbiter returns promptly and
// closes every output.
func TestCloseParkedEngine(t *testing.T) {
	const n = 4
	e := startLive(t, rt.Config{N: n, SlotPeriod: 50 * time.Microsecond})
	waitParks(t, e, 1)
	done := make(chan struct{})
	go func() {
		e.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(parkTimeout):
		t.Fatal("Close did not return on a parked engine")
	}
	for j := 0; j < n; j++ {
		if _, ok := <-e.Output(j); ok {
			t.Errorf("output %d delivered a frame from an empty engine", j)
		}
	}
}
