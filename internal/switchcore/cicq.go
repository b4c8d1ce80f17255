// The crosspoint-buffered (combined input/crosspoint queued) switch
// datapath: the second implementation of Datapath, after the VOQ core
// with central matching.
//
// Instead of a bufferless crossbar reconfigured by one central matching
// per slot, every crosspoint (i,j) holds a small bounded ring. The slot
// then decomposes into two banks of independent arbiters:
//
//   - n input dispatch arbiters: each slot, input i moves at most one
//     frame from one of its VOQs into the corresponding crosspoint
//     buffer. The least-choice rule applies locally: among the eligible
//     VOQs (non-empty, output link up, crosspoint not full) it feeds the
//     output whose column currently has the fewest occupied crosspoints —
//     the output with the least choice of frames to pull.
//   - n output pull arbiters: each slot, output j pulls at most one
//     frame from one occupied crosspoint of its column. Least-choice
//     again: it serves the input whose row has the fewest occupied
//     crosspoints — the input with the fewest alternative outputs able to
//     serve it.
//
// Both banks break ties round-robin from a per-arbiter rotating pointer,
// the same fairness mechanism as the paper's Section 3 diagonal. No
// arbiter ever waits for another: the crosspoint buffers decouple the
// two banks, which is exactly the property that removes the central
// matching from the slot's critical path (PAPERS.md, arXiv:1406.4235).
// Unlike a matching, the per-slot grant vector is not a permutation —
// two outputs may pull frames buffered from the same input — so the
// decision type is sched.GrantSet, not matching.Match.
//
// Dispatch deliberately ignores the per-slot output backpressure mask
// (a masked output's crosspoints simply fill and dispatch moves on);
// pull respects it, exactly like the central schedulers do. Persistent
// link faults suppress both banks: a down input neither dispatches nor
// is pulled from, a down output neither receives dispatches nor pulls.
//
// The VOQ store's ledger counts VOQ and crosspoint residents combined, so
// the accessors a driver audits through (Len, OccupiedRow, InputBacklog,
// FlushVOQ, ...) and the engine's stranded-frame sweep and the chaos
// conservation audits hold unchanged: a frame is resident for pair (i,j)
// until the pull arbiter hands it to the driver. Concurrency contract is
// the Core's: per-input methods under the driver's per-input lock,
// everything touching crosspoint or arbiter state on the single arbiter
// goroutine. A slot costs zero heap allocations once rings reach working
// size.

package switchcore

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/matching"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/sched"
)

// CICQ is the crosspoint-buffered datapath for one n-port switch, generic
// over the queued item type exactly like Core.
type CICQ[T any] struct {
	// The VOQ store; its ledger counts VOQ plus crosspoint residents.
	voqStore[T]
	voqOcc *bitvec.Matrix // bit (i,j) ⇔ VOQ (i,j) non-empty (dispatch's candidates)

	// Crosspoint state (arbiter goroutine only: dispatch, pull, flush).
	xps    []queue.Ring[T] // crosspoint buffers, bounded at the crosspoint capacity
	colOcc *bitvec.Matrix  // transposed: bit (j,i) ⇔ crosspoint (i,j) non-empty
	rowCnt []int           // occupied crosspoints in row i (pull's choice count)
	colCnt []int           // occupied crosspoints in column j (dispatch's target load)
	inRR   []int           // dispatch round-robin pointer per input
	outRR  []int           // pull round-robin pointer per output

	// Slot scratch (arbiter-only).
	scratch *bitvec.Vector
	grants  *sched.GrantSet

	met cicqStats
}

// cicqStats are the cicq_* instrument backings: atomic so a metrics scrape
// never races the arbiter.
type cicqStats struct {
	dispatched      metrics.Counter // frames moved VOQ → crosspoint
	pulled          metrics.Counter // frames pulled crosspoint → driver
	dispatchBlocked metrics.Counter // slots an input had frames but every target crosspoint was full
	xpFrames        metrics.Gauge   // frames resident in crosspoint buffers
	xpOccupied      metrics.Gauge   // crosspoint buffers currently non-empty
}

// NewCICQ returns a CICQ datapath whose n² VOQs hold at most voqCap
// items (0 = unbounded, grown on demand as for New) and whose n²
// crosspoint buffers hold at most xpCap each (0 = DefaultXPCap).
// Crosspoint rings are always built at full size — they are tiny by
// construction. A negative xpCap panics: an unbounded crosspoint buffer
// is a contradiction — the whole organization rests on the buffers being
// small and bounded.
func NewCICQ[T any](n, voqCap, xpCap int) *CICQ[T] {
	store := newVOQStore[T](n, voqCap)
	if xpCap == 0 {
		xpCap = DefaultXPCap
	}
	if xpCap < 0 {
		panic(fmt.Sprintf("switchcore: crosspoint capacity %d (must be bounded and positive)", xpCap))
	}
	c := &CICQ[T]{
		voqStore: store,
		voqOcc:   bitvec.NewMatrix(n),
		xps:      make([]queue.Ring[T], n*n),
		colOcc:   bitvec.NewMatrix(n),
		rowCnt:   make([]int, n),
		colCnt:   make([]int, n),
		inRR:     make([]int, n),
		outRR:    make([]int, n),
		scratch:  bitvec.New(n),
		grants:   sched.NewGrantSet(n),
	}
	for k := range c.xps {
		c.xps[k] = queue.NewRingFull[T](xpCap)
	}
	return c
}

// Enqueue admits v to VOQ (i,j); a full VOQ rejects. Crosspoint
// occupancy is untouched — frames enter crosspoints only through the
// dispatch arbiter.
func (c *CICQ[T]) Enqueue(i, j int, v T) bool {
	q := &c.voqs[i*c.n+j]
	if !q.Push(v) {
		return false
	}
	if q.Len() == 1 {
		c.voqOcc.Set(i, j)
	}
	c.added(i, j)
	return true
}

// CrosspointFrames returns the frames currently resident in crosspoint
// buffers (atomic; safe to read from any goroutine).
func (c *CICQ[T]) CrosspointFrames() int { return int(c.met.xpFrames.Value()) }

// CrosspointsOccupied returns how many crosspoint buffers are non-empty
// (atomic; safe to read from any goroutine).
func (c *CICQ[T]) CrosspointsOccupied() int { return int(c.met.xpOccupied.Value()) }

// FlushVOQ empties pair (i,j) — VOQ first, then the crosspoint buffer —
// invoking fn (when non-nil) per removed frame, and returns the count.
// The disposal path for frames stranded behind a failed link under a
// drop policy. Called under input i's lock, on the arbiter goroutine
// (it touches crosspoint state).
func (c *CICQ[T]) FlushVOQ(i, j int, fn func(v T)) int {
	flushed := drain(&c.voqs[i*c.n+j], fn)
	if flushed > 0 {
		c.voqOcc.Clear(i, j)
	}
	if drained := drain(&c.xps[i*c.n+j], fn); drained > 0 {
		c.xpCleared(i, j, drained)
		flushed += drained
	}
	if flushed > 0 {
		c.removed(i, j, flushed)
	}
	return flushed
}

// xpFilled records crosspoint (i,j) going empty → occupied.
func (c *CICQ[T]) xpFilled(i, j int) {
	c.colOcc.Set(j, i)
	c.rowCnt[i]++
	c.colCnt[j]++
	c.met.xpOccupied.Add(1)
}

// xpCleared records crosspoint (i,j) going occupied → empty after
// removing drained frames.
func (c *CICQ[T]) xpCleared(i, j, drained int) {
	c.colOcc.Clear(j, i)
	c.rowCnt[i]--
	c.colCnt[j]--
	c.met.xpFrames.Add(int64(-drained))
	c.met.xpOccupied.Add(-1)
}

// SnapshotRow is the per-input dispatch arbiter: it moves at most one
// frame from input i's VOQs into a crosspoint buffer, choosing among the
// eligible VOQs (non-empty, output link up, crosspoint not full) the
// output whose column has the fewest occupied crosspoints, ties broken
// round-robin. It returns the eligible-request count (the row's
// occupancy minus fault suppression), zero masked (dispatch ignores the
// per-slot mask), and the fault-suppressed count — same metric meaning
// as the VOQ core's snapshot. Called under input i's lock, on the
// arbiter goroutine.
func (c *CICQ[T]) SnapshotRow(i int) (requested, masked, faulted int) {
	row := c.voqOcc.Row(i)
	if c.anyDownIn && c.downIn.Get(i) {
		return 0, 0, row.PopCount()
	}
	occupied := row.PopCount()
	if occupied == 0 {
		return 0, 0, 0
	}
	cand := row
	if c.anyDownOut {
		c.scratch.AndNotInto(row, c.downOut)
		cand = c.scratch
	}
	requested = cand.PopCount()
	faulted = occupied - requested
	if requested == 0 {
		return 0, 0, faulted
	}
	// Least-choice dispatch: feed the eligible output whose column has
	// the fewest occupied crosspoints; among ties the first in rotating
	// order from inRR[i] wins.
	best, bestCnt, bestDist := -1, 0, 0
	for j := cand.FirstSet(); j >= 0; j = cand.NextSet(j + 1) {
		if c.xps[i*c.n+j].Full() {
			continue
		}
		cnt := c.colCnt[j]
		dist := j - c.inRR[i]
		if dist < 0 {
			dist += c.n
		}
		if best < 0 || cnt < bestCnt || (cnt == bestCnt && dist < bestDist) {
			best, bestCnt, bestDist = j, cnt, dist
		}
	}
	if best < 0 {
		c.met.dispatchBlocked.Inc()
		return requested, 0, faulted
	}
	c.dispatch(i, best)
	return requested, 0, faulted
}

// dispatch moves the head of VOQ (i,j) into crosspoint (i,j).
func (c *CICQ[T]) dispatch(i, j int) {
	q := &c.voqs[i*c.n+j]
	v, _ := q.Pop()
	if q.Len() == 0 {
		c.voqOcc.Clear(i, j)
	}
	x := &c.xps[i*c.n+j]
	if x.Len() == 0 {
		c.xpFilled(i, j)
	}
	x.Push(v)
	c.inRR[i] = j + 1
	if c.inRR[i] == c.n {
		c.inRR[i] = 0
	}
	c.met.dispatched.Inc()
	c.met.xpFrames.Add(1)
}

// Arbitrate runs the per-output pull arbiters: every output that is up
// and unmasked picks, among its occupied crosspoints with a live input,
// the row with the fewest occupied crosspoints, ties broken round-robin.
// The scheduler argument is ignored — the local arbiters are the
// scheduler. Grants are computed against pre-pull state; the driver
// realizes them through Take. The returned GrantSet is datapath scratch,
// valid until the next Arbitrate.
func (c *CICQ[T]) Arbitrate(_ sched.Scheduler) *sched.GrantSet {
	g := c.grants
	g.Reset()
	for j := 0; j < c.n; j++ {
		if c.anyDownOut && c.downOut.Get(j) {
			continue
		}
		if c.maskAny && c.mask.Get(j) {
			continue
		}
		col := c.colOcc.Row(j)
		if c.anyDownIn {
			c.scratch.AndNotInto(col, c.downIn)
			col = c.scratch
		}
		choices := col.PopCount()
		if choices == 0 {
			continue
		}
		best, bestCnt, bestDist := -1, 0, 0
		for i := col.FirstSet(); i >= 0; i = col.NextSet(i + 1) {
			cnt := c.rowCnt[i]
			dist := i - c.outRR[j]
			if dist < 0 {
				dist += c.n
			}
			if best < 0 || cnt < bestCnt || (cnt == bestCnt && dist < bestDist) {
				best, bestCnt, bestDist = i, cnt, dist
			}
		}
		g.Set(j, best, sched.RuleLCF, choices)
		c.outRR[j] = best + 1
		if c.outRR[j] == c.n {
			c.outRR[j] = 0
		}
	}
	return g
}

// Take pops the frame granted to output j from crosspoint (Src[j], j).
// Called under input Src[j]'s lock, on the arbiter goroutine.
func (c *CICQ[T]) Take(j int) (v T, ok bool) {
	i := c.grants.Src[j]
	if i == matching.Unmatched {
		var zero T
		return zero, false
	}
	x := &c.xps[i*c.n+j]
	v, ok = x.Pop()
	if !ok {
		return v, false
	}
	if x.Len() == 0 {
		c.xpCleared(i, j, 1)
	} else {
		c.met.xpFrames.Add(-1)
	}
	c.met.pulled.Inc()
	c.removed(i, j, 1)
	return v, true
}

// Untake undoes a Take whose delivery could not complete, restoring v to
// the head of its crosspoint buffer.
func (c *CICQ[T]) Untake(j int, v T) {
	i := c.grants.Src[j]
	x := &c.xps[i*c.n+j]
	if x.Len() == 0 {
		c.xpFilled(i, j)
	}
	x.PushFront(v)
	c.met.xpFrames.Add(1)
	c.added(i, j)
}

// Register adds the cicq_* instruments to a registry: crosspoint
// occupancy gauges plus per-arbiter grant attribution (how many frames
// each arbiter bank moved).
func (c *CICQ[T]) Register(r *obs.Registry) {
	r.Gauge("cicq_crosspoint_frames",
		"Frames currently resident in crosspoint buffers (dispatched by an input arbiter, not yet pulled by an output arbiter).",
		func() float64 { return float64(c.met.xpFrames.Value()) })
	r.Gauge("cicq_crosspoint_occupied",
		"Crosspoint buffers currently holding at least one frame, out of n² total.",
		func() float64 { return float64(c.met.xpOccupied.Value()) })
	r.Counter("cicq_dispatch_blocked_total",
		"Slots an input dispatch arbiter had eligible frames but every target crosspoint buffer was full.",
		c.met.dispatchBlocked.Value)
	r.CounterVec("cicq_grants_total",
		"Frames moved by each CICQ arbiter bank: dispatch (VOQ to crosspoint) and pull (crosspoint to output).",
		func() []obs.Sample {
			return []obs.Sample{
				{Labels: obs.Labels("arbiter", "dispatch"), Value: float64(c.met.dispatched.Value())},
				{Labels: obs.Labels("arbiter", "pull"), Value: float64(c.met.pulled.Value())},
			}
		})
}
