package runtime

import (
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/sched/registry"
)

// TestParkProtocol steps the two halves of the idle protocol by hand, on
// an engine whose arbiter goroutine was never started, so each
// interleaving the stress test can only hope to hit is forced: work
// published before the arbiter raises the flag must be found by park's
// re-check (park returns without blocking), and work published after must
// leave a token (park returns once the waker has run).
func TestParkProtocol(t *testing.T) {
	const n = 4
	s, err := registry.New("lcf_central_rr", n, sched.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{N: n, Scheduler: s, SlotPeriod: time.Hour})
	if err != nil {
		t.Fatal(err)
	}

	// park runs on its own goroutine so a wrong block is a test failure,
	// not a hang; returned reports whether it came back.
	park := func() (returned chan struct{}) {
		returned = make(chan struct{})
		go func() {
			e.park()
			close(returned)
		}()
		return returned
	}
	mustReturn := func(returned chan struct{}, why string) {
		t.Helper()
		select {
		case <-returned:
		case <-time.After(2 * time.Second):
			t.Fatalf("park blocked: %s", why)
		}
		if e.parked.Load() {
			t.Fatalf("parked flag left set: %s", why)
		}
	}

	// The window the re-check closes: the frame is in before the flag is
	// up, so its Admit saw parked == false and sent nothing.
	if err := e.Admit(0, 1, 1, 0); err != nil {
		t.Fatal(err)
	}
	if len(e.wake) != 0 {
		t.Fatal("Admit on an unparked engine sent a wake token")
	}
	mustReturn(park(), "a frame was queued before the flag went up")
	if got := e.met.Parks.Value(); got != 0 {
		t.Fatalf("a park that found work counted as %d parks", got)
	}
	e.tick()
	<-e.outs[1]

	// The same window for a link transition.
	if err := e.FailInput(2); err != nil {
		t.Fatal(err)
	}
	if e.idle() {
		t.Fatal("idle with a link transition pending")
	}
	mustReturn(park(), "a link transition was pending before the flag went up")
	e.tick() // applies it
	if !e.idle() {
		t.Fatal("not idle after the transition was applied on an empty switch")
	}

	// Work published after the block: each kind of waker sends the token.
	wakers := []struct {
		name string
		do   func() error
	}{
		{"Admit", func() error { return e.Admit(0, 1, 2, 0) }},
		{"setLink", func() error { return e.RecoverInput(2) }},
	}
	for k, w := range wakers {
		returned := park()
		for deadline := time.Now().Add(2 * time.Second); e.met.Parks.Value() != int64(k+1); {
			if time.Now().After(deadline) {
				t.Fatalf("%s: park did not block on an idle engine", w.name)
			}
			time.Sleep(50 * time.Microsecond)
		}
		select {
		case <-returned:
			t.Fatalf("%s: park returned with nothing to do", w.name)
		case <-time.After(5 * time.Millisecond):
		}
		if err := w.do(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		mustReturn(returned, w.name+" did not wake the parked arbiter")
		e.tick()
		if w.name == "Admit" {
			<-e.outs[1]
		}
	}
}
