package main

import (
	"fmt"
	"math/bits"
	"regexp"
	"strconv"

	lcf "repro"
)

// failures counts attempted and failed operations for one run and keeps
// the first few reasons, so a failing run says what broke.
type failures struct {
	attempted, failed int64
	reasons           []string
}

func (f *failures) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	f.failed += n
	if len(f.reasons) < 8 {
		f.reasons = append(f.reasons, fmt.Sprintf(format, args...))
	}
}

// okShare is 1 − failed/attempted: the end-to-end form of the failure
// count (a healthy run reads exactly 1).
func (f *failures) okShare() float64 {
	if f.attempted == 0 {
		return 0
	}
	failed := f.failed
	if failed > f.attempted {
		failed = f.attempted
	}
	return 1 - float64(failed)/float64(f.attempted)
}

// simCell is what the conservation check needs from one lcf.Simulate
// result: the measurement-window counters, the packets still queued at
// the end, and how many packets generated inside the window departed
// (the delay stream's sample count).
type simCell struct {
	generated, dropped, stillQueued, departedMeasured int64
}

// conserved checks generated = delivered + dropped + resident over the
// packets generated inside the measurement window. It is exact once
// every warm-up packet has left, which the committed window lengths
// guarantee; a cell that breaks it lost, duplicated or starved a packet.
func (c simCell) conserved() bool {
	return c.generated == c.departedMeasured+c.dropped+c.stillQueued
}

func cellOf(res *lcf.SimResult) simCell {
	return simCell{
		generated:        res.Counters.Generated,
		dropped:          res.Counters.DroppedPQ,
		stillQueued:      int64(res.StillQueued),
		departedMeasured: res.Delay.Count(),
	}
}

// orderChecker verifies engine deliveries: every (src, dst[, class])
// stream was admitted with sequence numbers 0, 1, 2, … and must come
// back exactly so. A repeated or skipped number is a duplicate, a loss
// or a reordering; either way the frame counts as failed.
type orderChecker struct {
	next []uint64
}

func newOrderChecker(streams int) *orderChecker { return &orderChecker{next: make([]uint64, streams)} }

// deliver reports whether seq is the stream's next expected number.
func (o *orderChecker) deliver(stream int, seq uint64) bool {
	ok := seq == o.next[stream]
	if seq >= o.next[stream] {
		o.next[stream] = seq + 1
	}
	return ok
}

// echoWindow verifies the replies to one closed-loop window of up to 64
// frames: each frame answered once, with the stamp it was sent with, and
// frames of one flow answered in the order they were sent.
type echoWindow struct {
	base   uint64
	size   int
	stamps [64]uint64
	flows  [64]int32
	seen   uint64
	// lastSeq is the highest sequence number answered so far per flow,
	// plus one; it outlives the window.
	lastSeq []uint64
}

// reset opens a window of size frames starting at sequence number base.
func (w *echoWindow) reset(base uint64, size int) {
	w.base, w.size, w.seen = base, size, 0
}

// echo checks one data reply and returns "" or what is wrong with it.
func (w *echoWindow) echo(seq, stamp uint64) string {
	idx := seq - w.base
	if seq < w.base || idx >= uint64(w.size) {
		return "reply outside the window"
	}
	bit := uint64(1) << idx
	if w.seen&bit != 0 {
		return "duplicate echo"
	}
	w.seen |= bit
	if stamp != w.stamps[idx] {
		return "echo with a wrong stamp"
	}
	flow := w.flows[idx]
	if seq+1 <= w.lastSeq[flow] {
		return "flow answered out of order"
	}
	w.lastSeq[flow] = seq + 1
	return ""
}

// nack marks seq as answered by a refusal.
func (w *echoWindow) nack(seq uint64) string {
	idx := seq - w.base
	if seq < w.base || idx >= uint64(w.size) {
		return "nack outside the window"
	}
	w.seen |= uint64(1) << idx
	return "nacked"
}

// missing is the number of frames of the window not answered yet.
func (w *echoWindow) missing() int { return w.size - bits.OnesCount64(w.seen) }

// ledger is lcfd's exit line.
type ledger struct {
	slots, admitted, delivered, backpressured int64
}

var ledgerLine = regexp.MustCompile(`lcfd: done after (\d+) slots: admitted (\d+), delivered (\d+), backpressured (\d+)`)

func parseLedger(out string) (ledger, bool) {
	m := ledgerLine.FindStringSubmatch(out)
	if m == nil {
		return ledger{}, false
	}
	var v [4]int64
	for i := range v {
		v[i], _ = strconv.ParseInt(m[i+1], 10, 64)
	}
	return ledger{v[0], v[1], v[2], v[3]}, true
}

// clientLedger is the client side of the same books.
type clientLedger struct {
	sent, echoed, nacked int64
}

// ledgerDisagreement is how many frames the daemon's exit ledger and
// its error counters are off from the client's own counts; 0 means the
// books agree.
func ledgerDisagreement(l ledger, c clientLedger, protocolErrors, droppedNoClient int64) int64 {
	abs := func(x int64) int64 {
		if x < 0 {
			return -x
		}
		return x
	}
	return abs(l.admitted-(c.sent-c.nacked)) + abs(l.delivered-c.echoed) +
		abs(l.backpressured-c.nacked) + protocolErrors + droppedNoClient
}
