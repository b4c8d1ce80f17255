// Package switchcore holds the switch datapaths shared by the offline
// simulator (internal/simswitch) and the live engine (internal/runtime):
// the VOQ core with one central matching per slot (Core, the paper's
// organization) and the crosspoint-buffered variant (CICQ, cicq.go). Both
// implement Datapath and embed one VOQ store (store.go): the n² VOQs,
// linked lists in one frame slab per input (slab.go), the per-pair
// residency ledger, the output mask and the link masks. This package
// also names them ("voq", "cicq") and builds one by name (NewDatapath,
// datapath.go), so a driver never maps names itself.
// The two drivers run the same per-slot pipeline —
//
//	enqueue → snapshot requests → schedule → dequeue grants
//
// — and differ only in the time domain (a synchronous slot loop replaying
// a trace vs. a clocked arbiter fed by concurrent admissions). Before this
// package existed each carried its own copy of the VOQ store, request
// matrix and backlog accounting, kept consistent only by lockstep tests;
// now there is exactly one implementation and the drivers are thin.
// Datapath.Arbitrate hands both drivers the slot's decision as a
// sched.GrantSet, the one decision shape past the datapath, which the
// drivers trace, audit and compare.
//
// # Incremental request-matrix maintenance
//
// The paper's Section 2 request matrix R (bit (i,j) set ⇔ input i has at
// least one packet queued for output j) is the union of non-empty VOQs.
// The old drivers rebuilt it every slot by scanning all n² queues. The
// core instead maintains an occupancy matrix incrementally: Enqueue sets
// bit (i,j) when the VOQ goes 0→1, Dequeue clears it on 1→0. Per-slot
// request construction is then a row-wise word copy of the occupancy
// matrix (O(n²/64) words) plus an optional AndNot with the output
// backpressure mask, instead of O(n²) queue probes. Per-VOQ backlogs
// (sched.Context.QueueLens) are maintained the same way — an increment on
// enqueue, a decrement on dequeue — so weight-aware schedulers (LQF) get
// real queue lengths in both time domains for free.
//
// # Concurrency contract
//
// The core itself takes no locks; synchronization belongs to the driver
// because only the live engine needs it. State is split so a driver can
// shard locking per input:
//
//   - Per-input state (input i's slab, its VOQ lists and staged slots,
//     occupancy row i, lens row i, backlog counter i) is touched only by
//     Enqueue/Stage/EnqueueStaged/Unstage/Dequeue/Requeue/FlushVOQ/Len/
//     InputBacklog on that input and by SnapshotRow(i). The live engine guards each input's calls with
//     that input's mutex; the simulator is single-threaded and needs no
//     locks.
//   - Slot scratch (the request snapshot, queue-length snapshot, output
//     mask, match, context) is touched only by the snapshot/schedule/
//     mask/validate methods, which must all run on one goroutine (the
//     arbiter). The snapshot *copies* occupancy and lengths, so the
//     scheduler never reads state that a concurrent admission is writing.
//
// All scratch is allocated at construction: a slot costs zero heap
// allocations regardless of n (an input's slab grows only while its
// backlog climbs to a new peak, then never allocates again).
package switchcore

import (
	"repro/internal/bitvec"
	"repro/internal/matching"
	"repro/internal/sched"
)

// Core is the datapath for one n-port VOQ switch, generic over the queued
// item type: the simulator stores *packet.Packet, the live engine stores
// its Frame by value.
type Core[T any] struct {
	// The VOQ store: slabs and residency ledger are per-input state (see
	// the package comment's concurrency contract), the output and link
	// masks arbiter-only. A down input suppresses its whole request row;
	// a down output is AndNot'ed out of every row.
	voqStore[T]

	// Slot scratch (arbiter-only).
	req      *bitvec.Matrix // request snapshot handed to the scheduler
	lensSnap [][]int        // queue-length snapshot handed to the scheduler
	match    *matching.Match
	ctx      sched.Context

	// GrantSet bridge (arbiter-only): the per-output view of the last
	// matching, plus the scheduler whose Explainer attributed it. Cached
	// so Arbitrate stays free of per-slot interface assertions (the
	// zero-allocation slot contract).
	grants    *sched.GrantSet
	lastEx    sched.Explainer
	lastSched sched.Scheduler
}

// New returns a core for an n-port switch whose n² VOQs each hold at most
// voqCap items (0 = unbounded). Each input's slab starts small and
// doubles on demand, so the core costs what has been queued. It panics
// on non-positive n or negative voqCap: both drivers validate their
// configs first, so a bad value here is a programming error.
func New[T any](n, voqCap int) *Core[T] {
	return &Core[T]{
		voqStore: newVOQStore[T](n, voqCap),
		req:      bitvec.NewMatrix(n),
		lensSnap: flatRows(n),
		match:    matching.NewMatch(n),
		grants:   sched.NewGrantSet(n),
	}
}

// Enqueue appends v to VOQ (i,j) and reports acceptance; a full VOQ
// rejects (the driver decides whether that is a drop or backpressure).
// The occupancy bit, queue length and input backlog update incrementally.
func (c *Core[T]) Enqueue(i, j int, v T) bool {
	if !c.push(i, j, v) {
		return false
	}
	c.added(i, j)
	return true
}

// EnqueueStaged appends staged slot k (see Stage) to VOQ (i,j) under the
// same bound and ledger as Enqueue; a refused slot stays staged. The item
// is not read or copied.
func (c *Core[T]) EnqueueStaged(i, j int, k int32) bool {
	if !c.pushStaged(i, j, k) {
		return false
	}
	c.added(i, j)
	return true
}

// Dequeue removes and returns the head of VOQ (i,j); ok is false on an
// empty VOQ (a granted pair whose queue drained — the driver accounts it
// as a wasted grant).
func (c *Core[T]) Dequeue(i, j int) (v T, ok bool) {
	v, ok = c.slabs[i].pop(j)
	if ok {
		c.removed(i, j, 1)
	}
	return v, ok
}

// Requeue prepends v to VOQ (i,j), undoing a Dequeue whose delivery could
// not complete (the live engine's full-output fallback). It bypasses the
// capacity bound: the item just vacated its slot, so the queue cannot
// exceed the bound it satisfied before the Dequeue.
func (c *Core[T]) Requeue(i, j int, v T) {
	c.slabs[i].pushFront(j, v)
	c.added(i, j)
}

// LenRow returns input i's live per-output backlogs. The slice aliases
// core state: callers must treat it as read-only and, in a concurrent
// driver, hold input i's lock while reading.
func (c *Core[T]) LenRow(i int) []int { return c.lens[i] }

// FlushVOQ empties VOQ (i,j), invoking fn (when non-nil) on every removed
// item in queue order, and returns how many items it removed. It is the
// disposal path for frames stranded behind a failed link under a drop
// policy; the occupancy bit, queue length and backlog end exactly as
// after that many Dequeues. Concurrent drivers call it under input i's
// lock.
func (c *Core[T]) FlushVOQ(i, j int, fn func(v T)) int {
	k := c.slabs[i].drain(j, fn)
	if k > 0 {
		c.removed(i, j, k)
	}
	return k
}

// SnapshotRow copies input i's occupancy row (minus failed links and
// masked outputs) and queue lengths into the slot scratch. It returns how
// many requests the row contributes, how many non-empty VOQs the per-slot
// output mask suppressed, and how many the persistent link state
// suppressed (a down input faults its whole row; down outputs fault their
// columns). A concurrent driver calls it under input i's lock; after it
// returns, the scheduler reads only the snapshot, never live state.
func (c *Core[T]) SnapshotRow(i int) (requested, masked, faulted int) {
	row := c.req.Row(i)
	copy(c.lensSnap[i], c.lens[i])
	if c.anyDownIn && c.downIn.Get(i) {
		occupied := c.occ.Row(i).PopCount()
		row.Reset()
		return 0, 0, occupied
	}
	row.Copy(c.occ.Row(i))
	occupied := row.PopCount()
	live := occupied
	if c.anyDownOut {
		row.AndNot(c.downOut)
		live = row.PopCount()
		faulted = occupied - live
	}
	if c.maskAny {
		row.AndNot(c.mask)
		requested = row.PopCount()
		masked = live - requested
	} else {
		requested = live
	}
	return requested, masked, faulted
}

// SnapshotAll snapshots every row (the single-threaded driver's path) and
// returns the total request count.
func (c *Core[T]) SnapshotAll() int {
	total := 0
	for i := 0; i < c.n; i++ {
		r, _, _ := c.SnapshotRow(i)
		total += r
	}
	return total
}

// Requests returns the current request snapshot. Valid until the next
// snapshot; the driver may clear individual bits (ClearRequest) before
// scheduling but must otherwise treat it as read-only.
func (c *Core[T]) Requests() *bitvec.Matrix { return c.req }

// ClearRequest clears bit (i,j) of the request snapshot — the pipelined
// simulator's reservation masking, where backlog already covered by an
// in-flight grant is not re-advertised.
func (c *Core[T]) ClearRequest(i, j int) { c.req.Clear(i, j) }

// QueueLens returns the queue-length snapshot aligned with Requests.
func (c *Core[T]) QueueLens() [][]int { return c.lensSnap }

// Schedule runs s on the current snapshot and returns the match. The
// match is core scratch, valid until the next Schedule; clone to retain.
// sched.Context.QueueLens is always populated from the snapshot, so
// weight-aware schedulers see real backlogs in every driver.
func (c *Core[T]) Schedule(s sched.Scheduler) *matching.Match {
	c.ctx.Req = c.req
	c.ctx.QueueLens = c.lensSnap
	s.Schedule(&c.ctx, c.match)
	return c.match
}

// Validate re-checks the last match against the request snapshot it was
// computed from: conflict-freedom plus grant-implies-request.
func (c *Core[T]) Validate() error {
	return matching.Validate(c.match, sched.AsRequests(c.req))
}
