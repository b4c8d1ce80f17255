package switchcore

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/matching"
	"repro/internal/sched"
)

// The two Datapath implementations.
var (
	_ Datapath[int] = (*Core[int])(nil)
	_ Datapath[int] = (*CICQ[int])(nil)
)

// Datapath names: the values of lcfd -datapath, runtime.Config.Datapath
// and lcf.SimConfig.Datapath. They are public API, pinned by a golden
// test (testdata/names.golden) like the scheduler registry's names.
const (
	// DatapathVOQ is Core, the paper's organization.
	DatapathVOQ = "voq"
	// DatapathCICQ is the crosspoint-buffered CICQ.
	DatapathCICQ = "cicq"
)

// CICQScheduler is the scheduler label of a CICQ datapath: its local
// arbiters are the scheduler, so results, sweeps and the live engine
// report this name where the VOQ core reports its sched.Scheduler's.
const CICQScheduler = "lcf_cicq"

// DefaultXPCap is the per-crosspoint buffer bound NewCICQ uses when
// asked for 0. Crosspoint buffers are small by design — a handful of
// frames per crosspoint is what the CICQ literature assumes — and 8
// keeps the n² rings cheap while decoupling the arbiter banks.
const DefaultXPCap = 8

// Known reports whether name is a datapath name ("" counts as the
// default, DatapathVOQ).
func Known(name string) bool {
	return name == "" || name == DatapathVOQ || name == DatapathCICQ
}

// Names returns the datapath names, sorted.
func Names() []string { return []string{DatapathCICQ, DatapathVOQ} }

// NewDatapath builds the named datapath for n ports with VOQs bounded at
// voqCap and, on cicq, crosspoint buffers bounded at xpCap (0 takes
// DefaultXPCap). The error lists the known names on a miss so CLI typos
// are self-explanatory.
func NewDatapath[T any](name string, n, voqCap, xpCap int) (Datapath[T], error) {
	switch name {
	case "", DatapathVOQ:
		return New[T](n, voqCap), nil
	case DatapathCICQ:
		return NewCICQ[T](n, voqCap, xpCap), nil
	}
	return nil, fmt.Errorf("switchcore: unknown datapath %q (known: %v)", name, Names())
}

// Datapath is the switch-datapath contract shared by the drivers
// (internal/simswitch, internal/runtime) and implemented by two
// organizations: the VOQ core Core (bufferless crossbar, one central
// matching per slot) and the crosspoint-buffered CICQ (per-crosspoint
// rings with independent per-input dispatch and per-output pull
// arbiters). The contract covers the five concerns a driver touches —
// admit, per-slot advance, snapshot/arbitrate, fault masking, and flush —
// so the engine's fault sweep, the conservation audits and the
// observability hooks run unchanged against either datapath.
//
// The concurrency contract is the Core's, generalized: the admit-side
// methods (Enqueue, Stage, EnqueueStaged, Unstage, Len, HasBacklog,
// OccupiedRow, InputBacklog, FlushVOQ, SnapshotRow, Take, Untake) on
// input i are guarded by the driver's per-input lock, and a staged slot
// is input i's state like its VOQs; everything else (the per-slot mask,
// fault state, Arbitrate) belongs to the single arbiter goroutine. For
// a CICQ datapath the accessors cover crosspoint-resident frames too:
// Len(i,j) is VOQ plus crosspoint backlog, OccupiedRow(i) is the union
// occupancy, and FlushVOQ empties both — which is exactly what lets the
// engine's stranded-frame sweep and the chaos conservation audits hold
// bit-for-bit across datapaths.
type Datapath[T any] interface {
	// Enqueue admits v to VOQ (i,j) and reports acceptance; a full VOQ
	// rejects (the driver decides whether that is a drop or
	// backpressure).
	Enqueue(i, j int, v T) bool
	// Stage stores v in input i's slab outside every VOQ and returns its
	// slot: no ledger, bound or occupancy bit sees it until EnqueueStaged
	// links it. A driver that orders frames ahead of the VOQs (the
	// runtime's class tier) writes each frame once this way and orders
	// the slot.
	Stage(i int, v T) int32
	// EnqueueStaged links staged slot k into VOQ (i,j) under Enqueue's
	// bound and ledger, without reading the item; a refused slot stays
	// staged.
	EnqueueStaged(i, j int, k int32) bool
	// Unstage frees staged slot k of input i and returns its item.
	Unstage(i int, k int32) T
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
}

// Arbitrate runs s on the current snapshot (Schedule) and bridges the
// matching to the per-output GrantSet shared with the CICQ datapath,
// attributed by s's Explainer (cached, so the slot asserts no interface).
// Allocation-free after construction.
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
