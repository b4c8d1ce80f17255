package switchcore

import (
	"fmt"

	"repro/internal/bitvec"
)

// voqStore is the queueing state both datapaths embed: the n² VOQs, held
// as FIFO lists in one frame slab per input (slab.go), the slots staged
// in those slabs outside every VOQ (Stage), the per-pair
// residency ledger (occupancy bits, lengths and per-input backlogs), the
// per-slot output mask and the persistent link masks. For the VOQ core an
// item is resident while it sits in its VOQ; for CICQ the ledger also
// counts items dispatched into a crosspoint buffer and not yet pulled, so
// every accessor below answers for the pair as a whole.
//
// The slabs and ledger are per-input state (input i's slab and row i
// under input i's lock in a concurrent driver); the masks belong to the
// arbiter goroutine.
type voqStore[T any] struct {
	n      int
	voqCap int

	slabs   []inputSlab[T] // per input: its n VOQs
	occ     *bitvec.Matrix // bit (i,j) ⇔ pair (i,j) holds any item
	lens    [][]int        // live per-pair backlog, rows into one flat array
	backlog []int          // per-input totals

	mask    *bitvec.Vector // output columns suppressed this slot
	maskAny bool

	// Link state: persistent fault masks, as opposed to the per-slot
	// backpressure mask above.
	downIn     *bitvec.Vector
	downOut    *bitvec.Vector
	anyDownIn  bool
	anyDownOut bool
}

// newVOQStore validates the shape shared by both datapaths and builds the
// store: n input slabs, each starting small and growing on demand, with
// every VOQ bounded at voqCap (0 = unbounded). It panics on non-positive
// n or negative voqCap: the drivers validate their configs first, so a
// bad value here is a programming error.
func newVOQStore[T any](n, voqCap int) voqStore[T] {
	if n <= 0 {
		panic(fmt.Sprintf("switchcore: port count %d", n))
	}
	if voqCap < 0 {
		panic(fmt.Sprintf("switchcore: negative VOQ capacity %d", voqCap))
	}
	s := voqStore[T]{
		n:       n,
		voqCap:  voqCap,
		slabs:   make([]inputSlab[T], n),
		occ:     bitvec.NewMatrix(n),
		lens:    flatRows(n),
		backlog: make([]int, n),
		mask:    bitvec.New(n),
		downIn:  bitvec.New(n),
		downOut: bitvec.New(n),
	}
	for i := range s.slabs {
		s.slabs[i] = newInputSlab[T](n)
	}
	return s
}

// push appends v to VOQ (i,j) and reports acceptance; a VOQ at voqCap
// rejects. The ledger is the caller's.
func (s *voqStore[T]) push(i, j int, v T) bool {
	in := &s.slabs[i]
	if s.full(in, j) {
		return false
	}
	in.link(j, in.alloc(v))
	return true
}

// pushStaged appends staged slot k to VOQ (i,j) and reports acceptance
// under the same bound as push; a refused slot stays staged. The ledger
// is the caller's.
func (s *voqStore[T]) pushStaged(i, j int, k int32) bool {
	in := &s.slabs[i]
	if s.full(in, j) {
		return false
	}
	in.link(j, k)
	return true
}

// full reports whether VOQ j of input slab in is at voqCap.
func (s *voqStore[T]) full(in *inputSlab[T], j int) bool {
	return s.voqCap > 0 && in.len(j) >= s.voqCap
}

// Stage stores v in input i's slab outside every VOQ and returns its
// slot, for a later EnqueueStaged or Unstage. A staged item is invisible
// to the ledger, the VOQ bound and the occupancy bits: it is the
// driver's to account for until it is linked.
func (s *voqStore[T]) Stage(i int, v T) int32 { return s.slabs[i].alloc(v) }

// Unstage frees staged slot k of input i and returns its item.
func (s *voqStore[T]) Unstage(i int, k int32) T {
	in := &s.slabs[i]
	v := in.items[k]
	in.release(k)
	return v
}

// flatRows carves an n×n int matrix out of one allocation.
func flatRows(n int) [][]int {
	flat := make([]int, n*n)
	rows := make([][]int, n)
	for i := range rows {
		rows[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	return rows
}

// added records one more item resident for pair (i,j).
func (s *voqStore[T]) added(i, j int) {
	if s.lens[i][j] == 0 {
		s.occ.Set(i, j)
	}
	s.lens[i][j]++
	s.backlog[i]++
}

// removed records k fewer items resident for pair (i,j).
func (s *voqStore[T]) removed(i, j, k int) {
	s.lens[i][j] -= k
	s.backlog[i] -= k
	if s.lens[i][j] == 0 {
		s.occ.Clear(i, j)
	}
}

// N returns the port count.
func (s *voqStore[T]) N() int { return s.n }

// VOQCap returns the per-VOQ capacity bound (0 = unbounded).
func (s *voqStore[T]) VOQCap() int { return s.voqCap }

// Len returns the backlog of pair (i,j).
func (s *voqStore[T]) Len(i, j int) int { return s.lens[i][j] }

// HasBacklog reports whether pair (i,j) holds any item.
func (s *voqStore[T]) HasBacklog(i, j int) bool { return s.occ.Get(i, j) }

// OccupiedRow returns input i's live occupancy bits (set ⇔ that pair
// holds an item). The vector aliases store state: callers must treat it
// as read-only and, in a concurrent driver, hold input i's lock while
// reading.
func (s *voqStore[T]) OccupiedRow(i int) *bitvec.Vector { return s.occ.Row(i) }

// InputBacklog returns the total backlog across input i's pairs.
func (s *voqStore[T]) InputBacklog(i int) int { return s.backlog[i] }

// TotalBacklog returns the backlog summed over all inputs. In a
// concurrent driver the per-input reads are not one transaction; the
// result may be off by items in flight, which is fine for monitoring.
func (s *voqStore[T]) TotalBacklog() int {
	t := 0
	for _, b := range s.backlog {
		t += b
	}
	return t
}

// ResetOutputMask clears the per-slot output backpressure mask. Call at
// the top of a slot, before MaskOutput/SnapshotRow.
func (s *voqStore[T]) ResetOutputMask() {
	if s.maskAny {
		s.mask.Reset()
		s.maskAny = false
	}
}

// MaskOutput suppresses output j for this slot: a backpressured output
// (full delivery channel) must not attract grants it cannot accept. The
// VOQ core drops column j from the request snapshot; CICQ's pull arbiter
// skips j while dispatch toward it continues until its crosspoints fill —
// that decoupling is the point of the crosspoint buffers.
func (s *voqStore[T]) MaskOutput(j int) {
	s.mask.Set(j)
	s.maskAny = true
}

// SetInputDown marks input i's link failed (or recovered). While down,
// input i is granted nothing: the VOQ core drops its whole row from every
// request snapshot, CICQ neither dispatches from it nor pulls from it.
// Link state persists across slots, unlike the per-slot output mask, and
// belongs to the arbiter domain: drivers mutate it only from the
// goroutine that runs the snapshot/arbitrate sequence.
func (s *voqStore[T]) SetInputDown(i int, down bool) {
	s.downIn.SetTo(i, down)
	s.anyDownIn = s.downIn.Any()
}

// SetOutputDown marks output j's link failed (or recovered). While down,
// output j attracts no grants: the VOQ core removes column j from every
// request snapshot exactly like a backpressured output, CICQ neither
// dispatches toward it nor lets it pull.
func (s *voqStore[T]) SetOutputDown(j int, down bool) {
	s.downOut.SetTo(j, down)
	s.anyDownOut = s.downOut.Any()
}

// InputDown reports whether input i's link is failed.
func (s *voqStore[T]) InputDown(i int) bool { return s.anyDownIn && s.downIn.Get(i) }

// OutputDown reports whether output j's link is failed.
func (s *voqStore[T]) OutputDown(j int) bool { return s.anyDownOut && s.downOut.Get(j) }

// AnyLinkDown reports whether any input or output link is failed.
func (s *voqStore[T]) AnyLinkDown() bool { return s.anyDownIn || s.anyDownOut }
