package main

import (
	"testing"

	lcf "repro"
	"repro/internal/matching"
	"repro/internal/sched"
)

// A benchmark that cannot fail measures nothing: each test below feeds
// one deliberately broken input to a checker the workloads use and
// asserts that the run's failure share rises above zero.

func failShare(f *failures) float64 { return 1 - f.okShare() }

func openWindow(flows int) *echoWindow {
	w := &echoWindow{lastSeq: make([]uint64, flows)}
	w.reset(100, 4)
	for k := 0; k < 4; k++ {
		w.stamps[k] = uint64(1000 + k)
	}
	return w
}

func TestEchoWindowAcceptsACleanWindow(t *testing.T) {
	w := openWindow(1)
	for _, k := range []uint64{0, 1, 2, 3} {
		if why := w.echo(100+k, 1000+k); why != "" {
			t.Fatalf("clean echo %d refused: %s", k, why)
		}
	}
	if w.missing() != 0 {
		t.Fatalf("missing = %d after a full window", w.missing())
	}
}

func TestEchoWindowFaults(t *testing.T) {
	cases := []struct {
		name string
		feed func(w *echoWindow) string
	}{
		{"duplicate echo", func(w *echoWindow) string {
			w.echo(100, 1000)
			return w.echo(100, 1000)
		}},
		{"wrong stamp", func(w *echoWindow) string { return w.echo(101, 9999) }},
		{"reordered flow", func(w *echoWindow) string {
			// Frames 100 and 102 belong to the same flow; 102 overtakes.
			w.flows[0], w.flows[2] = 7, 7
			w.echo(102, 1002)
			return w.echo(100, 1000)
		}},
		{"reply outside the window", func(w *echoWindow) string { return w.echo(99, 1000) }},
		{"reply past the window", func(w *echoWindow) string { return w.echo(104, 1000) }},
		{"nack", func(w *echoWindow) string { return w.nack(101) }},
	}
	for _, c := range cases {
		var f failures
		f.attempted = 4
		if why := c.feed(openWindow(8)); why != "" {
			f.fail(1, "%s", why)
		}
		if failShare(&f) <= 0 {
			t.Errorf("%s: fail share stayed 0", c.name)
		}
	}
}

func TestEchoWindowCountsUnanswered(t *testing.T) {
	w := openWindow(1)
	w.echo(100, 1000)
	w.nack(102)
	var f failures
	f.attempted = 4
	f.fail(int64(w.missing()), "unanswered")
	if w.missing() != 2 || failShare(&f) != 0.5 {
		t.Errorf("missing = %d, fail share = %g; want 2 and 0.5", w.missing(), failShare(&f))
	}
}

func TestOrderCheckerFaults(t *testing.T) {
	feeds := map[string][]uint64{
		"in order":   {0, 1, 2, 3},
		"duplicate":  {0, 1, 1, 2},
		"reordered":  {0, 2, 1, 3},
		"lost frame": {0, 1, 3},
	}
	for name, seqs := range feeds {
		o := newOrderChecker(2)
		var f failures
		for _, s := range seqs {
			f.attempted++
			if !o.deliver(1, s) {
				f.fail(1, "stream 1 seq %d", s)
			}
		}
		if got := failShare(&f) > 0; got != (name != "in order") {
			t.Errorf("%s: fail share %g", name, failShare(&f))
		}
	}
}

func TestLedgerOffByOne(t *testing.T) {
	l, ok := parseLedger("lcfd: shutting down\nlcfd: done after 123456 slots: admitted 1000, delivered 1000, backpressured 0\n")
	if !ok || l != (ledger{123456, 1000, 1000, 0}) {
		t.Fatalf("parseLedger = %+v, %v", l, ok)
	}
	books := clientLedger{sent: 1000, echoed: 1000}
	if off := ledgerDisagreement(l, books, 0, 0); off != 0 {
		t.Fatalf("agreeing books are off by %d", off)
	}
	broken := []struct {
		name   string
		l      ledger
		errs   int64
		nolink int64
	}{
		{"delivered one short", ledger{1, 1000, 999, 0}, 0, 0},
		{"admitted one extra", ledger{1, 1001, 1000, 0}, 0, 0},
		{"a nack the client never saw", ledger{1, 1000, 1000, 1}, 0, 0},
		{"a protocol error", l, 1, 0},
		{"a delivery with no client", l, 0, 1},
	}
	for _, c := range broken {
		var f failures
		f.attempted = books.sent
		f.fail(ledgerDisagreement(c.l, books, c.errs, c.nolink), "books disagree")
		if failShare(&f) <= 0 {
			t.Errorf("%s: fail share stayed 0", c.name)
		}
	}
	if _, ok := parseLedger("lcfd: shutting down\n"); ok {
		t.Error("a log without the exit line must not parse")
	}
}

func TestSimConservation(t *testing.T) {
	ok := simCell{generated: 100, departedMeasured: 90, dropped: 4, stillQueued: 6}
	if !ok.conserved() {
		t.Fatal("a balanced cell must pass")
	}
	lost := ok
	lost.departedMeasured-- // one packet vanished
	var f failures
	f.attempted = 1
	if !lost.conserved() {
		f.fail(1, "conservation")
	}
	if failShare(&f) <= 0 {
		t.Error("a lost packet must fail the cell")
	}
}

// conflictingSched grants output 0 to two inputs: a matching the
// crossbar cannot realize.
type conflictingSched struct{ n int }

func (conflictingSched) Name() string { return "conflicting" }
func (c conflictingSched) N() int     { return c.n }
func (conflictingSched) Schedule(_ *sched.Context, m *matching.Match) {
	m.Reset()
	m.InToOut[0], m.InToOut[1] = 0, 0
	m.OutToIn[0] = 1
}

// ungrantedSched grants a pair nobody requested.
type ungrantedSched struct{ n int }

func (ungrantedSched) Name() string { return "ungranted" }
func (u ungrantedSched) N() int     { return u.n }
func (ungrantedSched) Schedule(_ *sched.Context, m *matching.Match) {
	m.Reset()
	m.Pair(2, 3)
}

func TestTracedSchedCatchesBadMatches(t *testing.T) {
	req := lcf.NewRequestMatrix(4)
	req.Set(0, 0)
	req.Set(1, 0)
	for _, s := range []sched.Scheduler{conflictingSched{4}, ungrantedSched{4}} {
		w := &tracedSched{inner: s, tr: newTracer("cell", 16)}
		w.Schedule(&sched.Context{Req: req}, lcf.NewMatch(4))
		var f failures
		f.attempted = 1
		f.fail(w.invalid, "invalid matchings")
		if w.calls != 1 || failShare(&f) <= 0 {
			t.Errorf("%s: calls %d, invalid %d, fail share %g", s.Name(), w.calls, w.invalid, failShare(&f))
		}
	}
	good, err := lcf.NewScheduler("lcf_central_rr", 4, lcf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := &tracedSched{inner: good, tr: newTracer("cell", 16)}
	w.Schedule(&sched.Context{Req: req}, lcf.NewMatch(4))
	if w.invalid != 0 || w.grants != 1 || w.tr.total[spDecide].n != 1 {
		t.Errorf("valid scheduler: invalid %d, grants %d, spans %d", w.invalid, w.grants, w.tr.total[spDecide].n)
	}
}

func TestOkShare(t *testing.T) {
	var f failures
	if f.okShare() != 0 {
		t.Error("nothing attempted must not read as all ok")
	}
	f.attempted = 10
	if f.okShare() != 1 {
		t.Error("no failures must read exactly 1")
	}
	f.fail(25, "more failures than attempts")
	if f.okShare() != 0 {
		t.Errorf("ok share = %g, want 0 (clamped)", f.okShare())
	}
}
