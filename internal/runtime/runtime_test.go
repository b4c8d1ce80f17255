package runtime_test

import (
	"errors"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/datapath"
	rt "repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/sched/registry"
)

func newScheduler(t testing.TB, name string, n int) sched.Scheduler {
	t.Helper()
	s, err := registry.New(name, n, sched.Options{Iterations: 4, Seed: 7})
	if err != nil {
		t.Fatalf("registry.New(%q): %v", name, err)
	}
	return s
}

// TestConcurrentAdmitDeliverDrain is the -race workout: per-input
// producers admit frames (retrying on backpressure) while per-output
// consumers drain delivery channels, a scraper snapshots counters, and
// the free-running arbiter ticks. Close must drain every admitted frame.
func TestConcurrentAdmitDeliverDrain(t *testing.T) {
	const (
		n          = 8
		perInput   = 400
		slotPeriod = 100 * time.Microsecond
	)
	e, err := rt.New(rt.Config{
		N:          n,
		Scheduler:  newScheduler(t, "lcf_central_rr", n),
		VOQCap:     32,
		OutCap:     32,
		SlotPeriod: slotPeriod,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}

	var delivered sync.WaitGroup
	received := make([]int64, n)
	for j := 0; j < n; j++ {
		delivered.Add(1)
		go func(j int) {
			defer delivered.Done()
			for f := range e.Output(j) {
				if f.Dst != j {
					t.Errorf("output %d received frame for dst %d", j, f.Dst)
				}
				received[j]++
			}
		}(j)
	}

	// A scraper hammering Snapshot concurrently with everything else.
	stopScrape := make(chan struct{})
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		for {
			select {
			case <-stopScrape:
				return
			case <-time.After(time.Millisecond):
				_ = e.Snapshot()
			}
		}
	}()

	var producers sync.WaitGroup
	var backpressured int64
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		producers.Add(1)
		go func(i int) {
			defer producers.Done()
			bp := int64(0)
			for k := 0; k < perInput; {
				dst := (i + k) % n
				err := e.Admit(i, dst, uint64(k), 0)
				switch {
				case err == nil:
					k++
				case errors.Is(err, rt.ErrBackpressure):
					bp++
					time.Sleep(slotPeriod)
				default:
					t.Errorf("Admit: %v", err)
					return
				}
			}
			mu.Lock()
			backpressured += bp
			mu.Unlock()
		}(i)
	}
	producers.Wait()
	e.Close()
	delivered.Wait()
	close(stopScrape)
	<-scrapeDone

	var total int64
	for _, r := range received {
		total += r
	}
	if total != n*perInput {
		t.Fatalf("consumers received %d frames, admitted %d", total, n*perInput)
	}
	s := e.Snapshot()
	if s.Admitted != n*perInput {
		t.Errorf("snapshot admitted %d, want %d", s.Admitted, n*perInput)
	}
	if s.Delivered != n*perInput {
		t.Errorf("snapshot delivered %d, want %d", s.Delivered, n*perInput)
	}
	if s.Backlog != 0 {
		t.Errorf("backlog %d after drain, want 0", s.Backlog)
	}
	if s.Backpressured != backpressured {
		t.Errorf("snapshot backpressured %d, producers saw %d", s.Backpressured, backpressured)
	}
}

// TestBackpressure checks the explicit admission-control contract: a full
// VOQ refuses frames with ErrBackpressure and accepts again once the slot
// loop drains it.
func TestBackpressure(t *testing.T) {
	e, err := rt.New(rt.Config{
		N:         4,
		Scheduler: newScheduler(t, "lcf_central_rr", 4),
		VOQCap:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Admit(0, 1, 1, 0); err != nil {
		t.Fatalf("first admit: %v", err)
	}
	if err := e.Admit(0, 1, 2, 0); !errors.Is(err, rt.ErrBackpressure) {
		t.Fatalf("second admit on full VOQ: got %v, want ErrBackpressure", err)
	}
	e.Tick()
	f := <-e.Output(1)
	if f.Seq != 1 || f.Src != 0 {
		t.Fatalf("delivered frame %+v, want seq 1 from input 0", f)
	}
	if err := e.Admit(0, 1, 3, 0); err != nil {
		t.Fatalf("admit after drain: %v", err)
	}
	s := e.Snapshot()
	if s.Backpressured != 1 {
		t.Errorf("backpressured count %d, want 1", s.Backpressured)
	}
}

// TestOutputMasking checks delivery-side backpressure: a full output
// channel masks the column, the frame stays queued, and it flows once the
// consumer catches up — the arbiter never blocks.
func TestOutputMasking(t *testing.T) {
	e, err := rt.New(rt.Config{
		N:         4,
		Scheduler: newScheduler(t, "lcf_central_rr", 4),
		OutCap:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 2; seq++ {
		if err := e.Admit(2, 3, seq, 0); err != nil {
			t.Fatal(err)
		}
	}
	e.Tick() // delivers seq 1, filling the size-1 output channel
	e.Tick() // output full: masked, frame 2 must stay queued
	s := e.Snapshot()
	if s.Delivered != 1 {
		t.Fatalf("delivered %d after masked tick, want 1", s.Delivered)
	}
	if s.Backlog != 1 {
		t.Fatalf("backlog %d, want 1", s.Backlog)
	}
	if s.MaskedOutputs == 0 {
		t.Error("expected a masked-output count")
	}
	if f := <-e.Output(3); f.Seq != 1 {
		t.Fatalf("first delivery seq %d, want 1", f.Seq)
	}
	e.Tick()
	if f := <-e.Output(3); f.Seq != 2 {
		t.Fatalf("second delivery seq %d, want 2", f.Seq)
	}
}

// TestCloseDrains checks graceful shutdown in lockstep mode: Close runs
// the slot loop until queued frames have all been dispatched, then closes
// the output channels.
func TestCloseDrains(t *testing.T) {
	const n = 4
	e, err := rt.New(rt.Config{N: n, Scheduler: newScheduler(t, "islip", n)})
	if err != nil {
		t.Fatal(err)
	}
	admitted := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < 3; k++ {
				if err := e.Admit(i, j, uint64(admitted), 0); err != nil {
					t.Fatal(err)
				}
				admitted++
			}
		}
	}
	e.Close()
	if err := e.Admit(0, 0, 0, 0); !errors.Is(err, rt.ErrClosed) {
		t.Fatalf("admit after close: got %v, want ErrClosed", err)
	}
	got := 0
	for j := 0; j < n; j++ {
		for range e.Output(j) { // terminates: channels closed by Close
			got++
		}
	}
	if got != admitted {
		t.Fatalf("drained %d frames, admitted %d", got, admitted)
	}
	if b := e.Snapshot().Backlog; b != 0 {
		t.Fatalf("backlog %d after Close, want 0", b)
	}
}

// TestCloseDrainsPastTheVOQ fills a pair beyond its VOQ — into its PIFO on
// a class engine, into its crosspoint on a CICQ engine — with output
// channels that have room, and checks Close delivers every frame: the
// drain bound covers a pair's whole capacity, not the VOQ alone.
func TestCloseDrainsPastTheVOQ(t *testing.T) {
	const n = 2
	for _, tc := range []struct {
		name  string
		cfg   rt.Config
		admit func(e *rt.Engine) (admitted int)
	}{
		{
			name: "voq/classes",
			cfg: rt.Config{N: n, Scheduler: newScheduler(t, "lcf_central_rr", n),
				VOQCap: 1, Classes: testClassList(), ClassQCap: 16},
			admit: func(e *rt.Engine) (admitted int) {
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						for k := 0; k < 16; k++ {
							if _, err := e.Offer(rt.Request{Src: i, Dst: j, Classed: true, Class: k % 3}); err != nil {
								t.Fatalf("Offer: %v", err)
							}
							admitted++
						}
					}
				}
				return admitted
			},
		},
		{
			name: "cicq",
			cfg:  rt.Config{N: n, Datapath: datapath.CICQ, VOQCap: 1},
			admit: func(e *rt.Engine) (admitted int) {
				for s := 0; s < 40; s++ {
					for i := 0; i < n; i++ {
						if e.Admit(i, 0, uint64(s), 0) == nil {
							admitted++
						}
					}
					e.Tick()
				}
				return admitted
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := rt.New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			admitted := tc.admit(e)
			e.Close()
			delivered := 0
			for j := 0; j < n; j++ {
				for range e.Output(j) {
					delivered++
				}
			}
			if s := e.Snapshot(); s.Undrained != 0 || delivered != admitted {
				t.Fatalf("Close left %d undrained; delivered %d of %d", s.Undrained, delivered, admitted)
			}
		})
	}
}

// TestAdmitCloseRace checks the Admit/Close atomicity contract: a frame
// admitted with a nil return concurrently with Close must still come out
// of an output channel — never accepted and then stranded in a VOQ the
// drain already decided was empty. Iterated to widen the race window,
// alternating Admit with Offer's fullest shape (steered and classified, so
// the frame it must not strand sits in a PIFO): the contract lives in the
// enqueue stage every door shares.
func TestAdmitCloseRace(t *testing.T) {
	const n = 4
	for round := 0; round < 20; round++ {
		cfg := rt.Config{
			N:          n,
			Scheduler:  newScheduler(t, "lcf_central_rr", n),
			VOQCap:     64,
			OutCap:     64,
			SlotPeriod: 50 * time.Microsecond,
		}
		admit := func(e *rt.Engine, i, k int) error { return e.Admit(i, k%n, uint64(k), 0) }
		if round%2 == 1 {
			cfg.Flows, cfg.Classes = 16, testClassList()
			admit = func(e *rt.Engine, i, k int) error {
				_, err := e.Offer(rt.Request{Dst: k % n, Seq: uint64(k), Flow: uint64(i), Steered: true, Class: k % 3, Classed: true})
				return err
			}
		}
		e, err := rt.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}

		var received int64
		var consumers sync.WaitGroup
		var rmu sync.Mutex
		for j := 0; j < n; j++ {
			consumers.Add(1)
			go func(j int) {
				defer consumers.Done()
				local := int64(0)
				for range e.Output(j) {
					local++
				}
				rmu.Lock()
				received += local
				rmu.Unlock()
			}(j)
		}

		var accepted int64
		var producers sync.WaitGroup
		var amu sync.Mutex
		for i := 0; i < n; i++ {
			producers.Add(1)
			go func(i int) {
				defer producers.Done()
				local := int64(0)
				for k := 0; ; k++ {
					err := admit(e, i, k)
					if errors.Is(err, rt.ErrClosed) {
						break
					}
					if err == nil {
						local++
					}
				}
				amu.Lock()
				accepted += local
				amu.Unlock()
			}(i)
		}

		time.Sleep(time.Millisecond) // let producers and Close collide
		e.Close()
		producers.Wait()
		consumers.Wait()

		if received != accepted {
			t.Fatalf("round %d: %d frames accepted but %d delivered (%d stranded)",
				round, accepted, received, accepted-received)
		}
	}
}

// TestAdmitErrors checks port validation.
func TestAdmitErrors(t *testing.T) {
	e, err := rt.New(rt.Config{N: 4, Scheduler: newScheduler(t, "islip", 4)})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range [][2]int{{-1, 0}, {4, 0}, {0, -1}, {0, 4}} {
		if err := e.Admit(c[0], c[1], 0, 0); !errors.Is(err, rt.ErrBadPort) {
			t.Errorf("Admit(%d,%d): got %v, want ErrBadPort", c[0], c[1], err)
		}
	}
}

// TestLiveModeStartErrors checks the mode rules: lockstep engines refuse
// Start, live engines refuse a second Start.
func TestLiveModeStartErrors(t *testing.T) {
	lock, err := rt.New(rt.Config{N: 4, Scheduler: newScheduler(t, "islip", 4)})
	if err != nil {
		t.Fatal(err)
	}
	if err := lock.Start(); err == nil {
		t.Fatal("Start on a lockstep engine did not error")
	}
	live, err := rt.New(rt.Config{
		N: 4, Scheduler: newScheduler(t, "islip", 4), SlotPeriod: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Start(); err != nil {
		t.Fatal(err)
	}
	if err := live.Start(); err == nil {
		t.Fatal("second Start did not error")
	}
	live.Close()
}

// TestLockstepEngineOwnsNoGoroutines: a lockstep engine runs entirely on
// its caller — New, Admit, Tick and Close spawn nothing, on either
// datapath, at a width (n = 256) where the slot loop sweeps multi-word
// rows. Under -race it is also the wide default-config CICQ regression:
// eight hot columns make every row's dispatch arbiter read and bump the
// same column counters, which is only safe on one goroutine.
func TestLockstepEngineOwnsNoGoroutines(t *testing.T) {
	const n = 256
	for _, dp := range datapath.Names() {
		t.Run(dp, func(t *testing.T) {
			base := goruntime.NumGoroutine()
			// The cicq datapath arbitrates locally and ignores the scheduler.
			e, err := rt.New(rt.Config{N: n, Datapath: dp, Scheduler: newScheduler(t, "lcf_central_rr", n)})
			if err != nil {
				t.Fatal(err)
			}
			admitted, delivered := 0, 0
			for slot := 0; slot < 50; slot++ {
				for k := 0; k < 8; k++ {
					i := (k*n/8 + slot) % n
					if err := e.Admit(i, (i+slot)%8, uint64(slot), 0); err != nil {
						t.Fatalf("slot %d: Admit(%d): %v", slot, i, err)
					}
					admitted++
				}
				e.Tick()
				delivered += drainOutputs(e)
			}
			if got := goruntime.NumGoroutine(); got > base {
				t.Errorf("%d goroutines after 50 Ticks, %d before New", got, base)
			}
			e.Close()
			delivered += drainOutputs(e)
			if got := goruntime.NumGoroutine(); got > base {
				t.Errorf("%d goroutines after Close, %d before New", got, base)
			}
			if delivered != admitted {
				t.Errorf("delivered %d of %d admitted frames", delivered, admitted)
			}
		})
	}
}
