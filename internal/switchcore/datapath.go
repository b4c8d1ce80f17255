package switchcore

import (
	"repro/internal/bitvec"
	"repro/internal/matching"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Core is the first Datapath implementation.
var _ Datapath[int] = (*Core[int])(nil)

// Datapath is the switch-datapath contract shared by the drivers
// (internal/simswitch, internal/runtime) and implemented by two
// organizations: the VOQ core in this package (bufferless crossbar, one
// central matching per slot) and the crosspoint-buffered variant in
// internal/cicq (per-crosspoint rings with independent per-input dispatch
// and per-output pull arbiters). The contract covers the five concerns a
// driver touches — admit, per-slot advance, snapshot/arbitrate, fault
// masking, and flush — so the engine's fault sweep, the conservation
// audits and the observability hooks run unchanged against either
// datapath.
//
// The concurrency contract is the Core's, generalized: the admit-side
// methods (Enqueue, Len, HasBacklog, OccupiedRow, InputBacklog, FlushVOQ,
// SnapshotRow, Take, Untake) on input i are guarded by the driver's
// per-input lock; everything else (the per-slot mask, fault state,
// Arbitrate, EmitSlotTrace) belongs to the single arbiter goroutine. For
// a CICQ datapath the accessors cover crosspoint-resident frames too:
// Len(i,j) is VOQ plus crosspoint backlog, OccupiedRow(i) is the union
// occupancy, and FlushVOQ empties both — which is exactly what lets the
// engine's stranded-frame sweep and the chaos conservation audits hold
// bit-for-bit across datapaths.
type Datapath[T any] interface {
	// N returns the port count.
	N() int

	// Enqueue admits v to VOQ (i,j) and reports acceptance; a full VOQ
	// rejects (the driver decides whether that is a drop or
	// backpressure).
	Enqueue(i, j int, v T) bool
	// Len returns the backlog for pair (i,j), including any frames
	// resident past the VOQ (crosspoint buffers).
	Len(i, j int) int
	// HasBacklog reports whether pair (i,j) holds any frame.
	HasBacklog(i, j int) bool
	// OccupiedRow returns input i's live occupancy bits (read-only; a
	// concurrent driver holds input i's lock while reading).
	OccupiedRow(i int) *bitvec.Vector
	// InputBacklog returns the total frames resident for input i.
	InputBacklog(i int) int
	// TotalBacklog sums InputBacklog over all inputs (monitoring only).
	TotalBacklog() int
	// FlushVOQ disposes every frame resident for pair (i,j), invoking fn
	// (when non-nil) per frame, and returns the count removed.
	FlushVOQ(i, j int, fn func(v T)) int

	// ResetOutputMask and MaskOutput manage the per-slot output
	// backpressure mask (arbiter-only, cleared at the top of each slot).
	ResetOutputMask()
	MaskOutput(j int)

	// Link-state fault masks: persistent across slots, arbiter-domain.
	SetInputDown(i int, down bool)
	SetOutputDown(j int, down bool)
	InputDown(i int) bool
	OutputDown(j int) bool
	AnyLinkDown() bool

	// SnapshotRow advances input i's slot-local state — for the VOQ core
	// a request-row snapshot, for CICQ the per-input dispatch arbiter —
	// and reports how many requests the row contributes, how many the
	// per-slot mask suppressed, and how many the persistent fault state
	// suppressed. A concurrent driver calls it under input i's lock.
	SnapshotRow(i int) (requested, masked, faulted int)
	// Arbitrate computes this slot's grants from the snapshotted state:
	// the VOQ core runs s (the central matching) and bridges the result,
	// CICQ runs its per-output pull arbiters and ignores s. The returned
	// GrantSet is datapath scratch, valid until the next Arbitrate.
	Arbitrate(s sched.Scheduler) *sched.GrantSet
	// Take removes the frame granted to output j (from the VOQ for the
	// central core, from crosspoint (Src[j], j) for CICQ); ok is false
	// when the grant went stale (a wasted grant). The driver holds input
	// Src[j]'s lock.
	Take(j int) (v T, ok bool)
	// Untake undoes a Take whose delivery could not complete, re-queuing
	// v at the head so ordering is preserved. Same locking as Take.
	Untake(j int, v T)
	// Match returns the central matching behind the last Arbitrate, or
	// nil for datapaths that do not compute one (CICQ).
	Match() *matching.Match
	// EmitSlotTrace records the last Arbitrate's decision into tr
	// (nil-safe, one atomic load when disabled).
	EmitSlotTrace(tr *obs.Tracer, slot int64, requested int)
}

// Arbitrate runs s on the current snapshot (Schedule) and bridges the
// matching to the per-output GrantSet shared with the CICQ datapath,
// caching s's Explainer for EmitSlotTrace. Allocation-free after
// construction.
func (c *Core[T]) Arbitrate(s sched.Scheduler) *sched.GrantSet {
	m := c.Schedule(s)
	if s != c.lastSched {
		c.lastEx, _ = s.(sched.Explainer)
		c.lastSched = s
	}
	c.grants.FromMatch(m, c.lastEx)
	return c.grants
}

// Take dequeues the frame granted to output j by the last Arbitrate.
func (c *Core[T]) Take(j int) (v T, ok bool) {
	i := c.grants.Src[j]
	if i == matching.Unmatched {
		var zero T
		return zero, false
	}
	return c.Dequeue(i, j)
}

// Untake re-queues a taken frame at the head of its VOQ.
func (c *Core[T]) Untake(j int, v T) {
	c.Requeue(c.grants.Src[j], j, v)
}

// EmitSlotTrace records the last Arbitrate's matching with per-grant
// attribution from the cached Explainer — byte-identical ring records to
// the explicit EmitTrace path the simulator drives.
func (c *Core[T]) EmitSlotTrace(tr *obs.Tracer, slot int64, requested int) {
	if tr == nil || !tr.Enabled() {
		return
	}
	tr.Emit(slot, requested, c.match, c.lastEx)
}
