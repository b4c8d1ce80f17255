// Package cicq is the crosspoint-buffered (combined input/crosspoint
// queued) switch datapath: the second implementation of
// switchcore.Datapath, after the VOQ core with central matching.
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
// The accessors a driver audits through (Len, OccupiedRow, InputBacklog,
// FlushVOQ, ...) cover VOQ and crosspoint residents combined, so the
// engine's stranded-frame sweep and the chaos conservation audits hold
// unchanged: a frame is resident for pair (i,j) until the pull arbiter
// hands it to the driver. Concurrency contract is the switchcore one:
// per-input methods under the driver's per-input lock, everything
// touching crosspoint or arbiter state on the single arbiter goroutine.
// A slot costs zero heap allocations once rings reach working size.
package cicq

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/matching"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/switchcore"
)

// Core is the CICQ datapath for one n-port switch, generic over the
// queued item type exactly like switchcore.Core.
type Core[T any] struct {
	n      int
	voqCap int
	xpCap  int

	// Per-input state (driver's per-input lock): the VOQ store plus the
	// combined VOQ+crosspoint residency the audit accessors expose.
	voqs    []switchcore.Ring[T] // flattened n×n, index i*n+j
	voqOcc  *bitvec.Matrix       // bit (i,j) ⇔ VOQ (i,j) non-empty
	occ     *bitvec.Matrix       // combined: VOQ or crosspoint non-empty
	lens    [][]int              // combined per-pair backlog
	backlog []int                // combined per-input totals

	// Crosspoint state (arbiter goroutine only: dispatch, pull, flush).
	xps    []switchcore.Ring[T] // crosspoint buffers, bounded at xpCap
	colOcc *bitvec.Matrix       // transposed: bit (j,i) ⇔ crosspoint (i,j) non-empty
	rowCnt []int                // occupied crosspoints in row i (pull's choice count)
	colCnt []int                // occupied crosspoints in column j (dispatch's target load)
	inRR   []int                // dispatch round-robin pointer per input
	outRR  []int                // pull round-robin pointer per output

	// Slot scratch (arbiter-only).
	mask    *bitvec.Vector // outputs backpressured this slot (pull only)
	maskAny bool
	scratch *bitvec.Vector
	grants  *sched.GrantSet

	// Link state (arbiter-only), same semantics as the VOQ core.
	downIn     *bitvec.Vector
	downOut    *bitvec.Vector
	anyDownIn  bool
	anyDownOut bool

	met stats
}

// stats are the cicq_* instrument backings: atomic so a metrics scrape
// never races the arbiter.
type stats struct {
	dispatched      metrics.Counter // frames moved VOQ → crosspoint
	pulled          metrics.Counter // frames pulled crosspoint → driver
	dispatchBlocked metrics.Counter // slots an input had frames but every target crosspoint was full
	xpFrames        metrics.Gauge   // frames resident in crosspoint buffers
	xpOccupied      metrics.Gauge   // crosspoint buffers currently non-empty
}

var _ switchcore.Datapath[int] = (*Core[int])(nil)

// New returns a CICQ datapath whose n² VOQs hold at most voqCap items
// (0 = unbounded) and whose n² crosspoint buffers hold at most xpCap
// each. xpCap must be positive: an unbounded crosspoint buffer is a
// contradiction — the whole organization rests on the buffers being
// small and bounded.
func New[T any](n, voqCap, xpCap int) *Core[T] {
	return NewPrealloc[T](n, voqCap, xpCap, false)
}

// NewPrealloc is New with the VOQ ring-sizing policy of
// switchcore.NewPrealloc: prealloc true builds every VOQ at full voqCap
// up front for a strictly allocation-free admit path. Crosspoint rings
// are always built at full size — they are tiny by construction.
func NewPrealloc[T any](n, voqCap, xpCap int, prealloc bool) *Core[T] {
	if n <= 0 {
		panic(fmt.Sprintf("cicq: port count %d", n))
	}
	if voqCap < 0 {
		panic(fmt.Sprintf("cicq: negative VOQ capacity %d", voqCap))
	}
	if prealloc && voqCap == 0 {
		panic("cicq: prealloc requires a bounded VOQ capacity")
	}
	if xpCap <= 0 {
		panic(fmt.Sprintf("cicq: crosspoint capacity %d (must be bounded and positive)", xpCap))
	}
	c := &Core[T]{
		n:       n,
		voqCap:  voqCap,
		xpCap:   xpCap,
		voqs:    make([]switchcore.Ring[T], n*n),
		xps:     make([]switchcore.Ring[T], n*n),
		voqOcc:  bitvec.NewMatrix(n),
		occ:     bitvec.NewMatrix(n),
		backlog: make([]int, n),
		colOcc:  bitvec.NewMatrix(n),
		rowCnt:  make([]int, n),
		colCnt:  make([]int, n),
		inRR:    make([]int, n),
		outRR:   make([]int, n),
		mask:    bitvec.New(n),
		scratch: bitvec.New(n),
		grants:  sched.NewGrantSet(n),
		downIn:  bitvec.New(n),
		downOut: bitvec.New(n),
	}
	for k := range c.voqs {
		if prealloc {
			c.voqs[k] = switchcore.NewRingFull[T](voqCap)
		} else {
			c.voqs[k] = switchcore.NewRing[T](voqCap)
		}
		c.xps[k] = switchcore.NewRingFull[T](xpCap)
	}
	flat := make([]int, n*n)
	c.lens = make([][]int, n)
	for i := range c.lens {
		c.lens[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	return c
}

// N returns the port count.
func (c *Core[T]) N() int { return c.n }

// VOQCap returns the per-VOQ capacity bound (0 = unbounded).
func (c *Core[T]) VOQCap() int { return c.voqCap }

// XPCap returns the per-crosspoint capacity bound.
func (c *Core[T]) XPCap() int { return c.xpCap }

// Enqueue admits v to VOQ (i,j); a full VOQ rejects. Crosspoint
// occupancy is untouched — frames enter crosspoints only through the
// dispatch arbiter.
func (c *Core[T]) Enqueue(i, j int, v T) bool {
	q := &c.voqs[i*c.n+j]
	if !q.Push(v) {
		return false
	}
	if q.Len() == 1 {
		c.voqOcc.Set(i, j)
	}
	if c.lens[i][j] == 0 {
		c.occ.Set(i, j)
	}
	c.lens[i][j]++
	c.backlog[i]++
	return true
}

// Len returns the combined VOQ+crosspoint backlog for pair (i,j).
func (c *Core[T]) Len(i, j int) int { return c.lens[i][j] }

// HasBacklog reports whether pair (i,j) holds any frame, in the VOQ or
// the crosspoint buffer.
func (c *Core[T]) HasBacklog(i, j int) bool { return c.occ.Get(i, j) }

// OccupiedRow returns input i's combined occupancy bits (read-only; a
// concurrent driver holds input i's lock while reading).
func (c *Core[T]) OccupiedRow(i int) *bitvec.Vector { return c.occ.Row(i) }

// InputBacklog returns input i's total resident frames, VOQ plus
// crosspoints.
func (c *Core[T]) InputBacklog(i int) int { return c.backlog[i] }

// TotalBacklog sums InputBacklog over all inputs (monitoring only).
func (c *Core[T]) TotalBacklog() int {
	t := 0
	for _, b := range c.backlog {
		t += b
	}
	return t
}

// CrosspointFrames returns the frames currently resident in crosspoint
// buffers (atomic; safe to read from any goroutine).
func (c *Core[T]) CrosspointFrames() int { return int(c.met.xpFrames.Value()) }

// CrosspointsOccupied returns how many crosspoint buffers are non-empty
// (atomic; safe to read from any goroutine).
func (c *Core[T]) CrosspointsOccupied() int { return int(c.met.xpOccupied.Value()) }

// ResetOutputMask clears the per-slot output backpressure mask.
func (c *Core[T]) ResetOutputMask() {
	if c.maskAny {
		c.mask.Reset()
		c.maskAny = false
	}
}

// MaskOutput suppresses output j's pull arbiter this slot (full delivery
// channel). Dispatch toward j continues until its crosspoints fill —
// that decoupling is the point of the crosspoint buffers.
func (c *Core[T]) MaskOutput(j int) {
	c.mask.Set(j)
	c.maskAny = true
}

// SetInputDown marks input i's link failed (or recovered): while down,
// input i neither dispatches nor is pulled from.
func (c *Core[T]) SetInputDown(i int, down bool) {
	c.downIn.SetTo(i, down)
	c.anyDownIn = c.downIn.Any()
}

// SetOutputDown marks output j's link failed (or recovered): while down,
// output j neither receives dispatches nor pulls.
func (c *Core[T]) SetOutputDown(j int, down bool) {
	c.downOut.SetTo(j, down)
	c.anyDownOut = c.downOut.Any()
}

// InputDown reports whether input i's link is failed.
func (c *Core[T]) InputDown(i int) bool { return c.anyDownIn && c.downIn.Get(i) }

// OutputDown reports whether output j's link is failed.
func (c *Core[T]) OutputDown(j int) bool { return c.anyDownOut && c.downOut.Get(j) }

// AnyLinkDown reports whether any input or output link is failed.
func (c *Core[T]) AnyLinkDown() bool { return c.anyDownIn || c.anyDownOut }

// FlushVOQ empties pair (i,j) — VOQ first, then the crosspoint buffer —
// invoking fn (when non-nil) per removed frame, and returns the count.
// The disposal path for frames stranded behind a failed link under a
// drop policy. Called under input i's lock, on the arbiter goroutine
// (it touches crosspoint state).
func (c *Core[T]) FlushVOQ(i, j int, fn func(v T)) int {
	flushed := 0
	q := &c.voqs[i*c.n+j]
	for {
		v, ok := q.Pop()
		if !ok {
			break
		}
		if fn != nil {
			fn(v)
		}
		flushed++
	}
	if flushed > 0 {
		c.voqOcc.Clear(i, j)
	}
	x := &c.xps[i*c.n+j]
	if x.Len() > 0 {
		drained := 0
		for {
			v, ok := x.Pop()
			if !ok {
				break
			}
			if fn != nil {
				fn(v)
			}
			drained++
		}
		c.xpCleared(i, j, drained)
		flushed += drained
	}
	if flushed > 0 {
		c.lens[i][j] -= flushed
		c.backlog[i] -= flushed
		if c.lens[i][j] == 0 {
			c.occ.Clear(i, j)
		}
	}
	return flushed
}

// xpCleared records crosspoint (i,j) going occupied → empty after
// removing drained frames.
func (c *Core[T]) xpCleared(i, j, drained int) {
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
func (c *Core[T]) SnapshotRow(i int) (requested, masked, faulted int) {
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
func (c *Core[T]) dispatch(i, j int) {
	q := &c.voqs[i*c.n+j]
	v, _ := q.Pop()
	if q.Len() == 0 {
		c.voqOcc.Clear(i, j)
	}
	x := &c.xps[i*c.n+j]
	if x.Len() == 0 {
		c.colOcc.Set(j, i)
		c.rowCnt[i]++
		c.colCnt[j]++
		c.met.xpOccupied.Add(1)
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
func (c *Core[T]) Arbitrate(_ sched.Scheduler) *sched.GrantSet {
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
func (c *Core[T]) Take(j int) (v T, ok bool) {
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
	c.lens[i][j]--
	c.backlog[i]--
	if c.lens[i][j] == 0 {
		c.occ.Clear(i, j)
	}
	return v, true
}

// Untake undoes a Take whose delivery could not complete, restoring v to
// the head of its crosspoint buffer.
func (c *Core[T]) Untake(j int, v T) {
	i := c.grants.Src[j]
	x := &c.xps[i*c.n+j]
	if x.Len() == 0 {
		c.colOcc.Set(j, i)
		c.rowCnt[i]++
		c.colCnt[j]++
		c.met.xpOccupied.Add(1)
	}
	x.PushFront(v)
	c.met.xpFrames.Add(1)
	if c.lens[i][j] == 0 {
		c.occ.Set(i, j)
	}
	c.lens[i][j]++
	c.backlog[i]++
}

// Match returns nil: the CICQ datapath computes no central matching.
func (c *Core[T]) Match() *matching.Match { return nil }

// EmitSlotTrace records the last Arbitrate's grant vector (nil-safe, one
// atomic load when disabled).
func (c *Core[T]) EmitSlotTrace(tr *obs.Tracer, slot int64, requested int) {
	if tr == nil || !tr.Enabled() {
		return
	}
	tr.EmitGrants(slot, requested, c.grants)
}

// Register adds the cicq_* instruments to a registry: crosspoint
// occupancy gauges plus per-arbiter grant attribution (how many frames
// each arbiter bank moved).
func (c *Core[T]) Register(r *obs.Registry) {
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
