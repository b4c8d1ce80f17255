package switchcore

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/matching"
	"repro/internal/rng"
	"repro/internal/sched"
)

// voqItems walks VOQ (i,j)'s list through input i's slab, oldest first.
func voqItems[T any](s *voqStore[T], i, j int) []T {
	in := &s.slabs[i]
	q := in.voqs[j]
	out := make([]T, 0, q.length)
	for k, at := int32(0), q.head; k < q.length; k++ {
		out = append(out, in.items[at])
		at = in.next[at]
	}
	return out
}

// checkSlab checks input i's slab bookkeeping: every slot is on one
// VOQ's list, on the free list or staged, each staged slot (slot → item)
// still holds its item, and every free slot is zeroed.
func checkSlab(t *testing.T, s *voqStore[int], i int, staged map[int32]int, what string) {
	t.Helper()
	in := &s.slabs[i]
	used := 0
	for j := range in.voqs {
		used += in.len(j)
	}
	for k, v := range staged {
		if in.items[k] != v {
			t.Fatalf("%s: input %d staged slot %d holds %d, want %d", what, i, k, in.items[k], v)
		}
	}
	free := 0
	for k := in.free; k != noSlot; k = in.next[k] {
		if in.items[k] != 0 {
			t.Fatalf("%s: input %d free slot %d holds %d, want it zeroed", what, i, k, in.items[k])
		}
		free++
		if free > len(in.items) {
			t.Fatalf("%s: input %d free list cycles", what, i)
		}
	}
	if used+free+len(staged) != len(in.items) {
		t.Fatalf("%s: input %d: %d queued + %d free + %d staged slots, slab holds %d",
			what, i, used, free, len(staged), len(in.items))
	}
}

// greedy is a scheduler for the store oracle: inputs in order, each
// takes its lowest requested output still free.
type greedy struct{ n int }

func (g greedy) Name() string { return "greedy" }
func (g greedy) N() int       { return g.n }
func (g greedy) Schedule(ctx *sched.Context, m *matching.Match) {
	for i := 0; i < g.n; i++ {
		row := ctx.Req.Row(i)
		for j := row.FirstSet(); j >= 0; j = row.NextSet(j + 1) {
			if !m.OutputMatched(j) {
				m.Pair(i, j)
				break
			}
		}
	}
}

// storeOracle drives one datapath beside a slice-per-VOQ reference: voq
// holds each VOQ's items in order, xp each CICQ crosspoint's, and staged
// each input's staged slots with their items.
type storeOracle struct {
	t      *testing.T
	n      int
	voqCap int
	core   *Core[int]
	cicq   *CICQ[int]
	store  *voqStore[int]
	voq    [][][]int
	xp     [][][]int
	staged []map[int32]int
	next   int // the next item value; 0 is reserved for a zeroed slot
	peak   int // the largest slab seen
	// stagedGrowth is the largest slab seen grown past slabInitial
	// while some of its slots were staged.
	stagedGrowth int
}

func newStoreOracle(t *testing.T, n, voqCap int, crosspoint bool) *storeOracle {
	o := &storeOracle{
		t: t, n: n, voqCap: voqCap, next: 1,
		voq: make([][][]int, n), xp: make([][][]int, n), staged: make([]map[int32]int, n),
	}
	for i := range o.voq {
		o.voq[i] = make([][]int, n)
		o.xp[i] = make([][]int, n)
		o.staged[i] = map[int32]int{}
	}
	if crosspoint {
		o.cicq = NewCICQ[int](n, voqCap, 0)
		o.store = &o.cicq.voqStore
	} else {
		o.core = New[int](n, voqCap)
		o.store = &o.core.voqStore
	}
	return o
}

func (o *storeOracle) dp() Datapath[int] {
	if o.cicq != nil {
		return o.cicq
	}
	return o.core
}

func (o *storeOracle) enqueue(i, j int) {
	v := o.next
	o.next++
	want := o.voqCap == 0 || len(o.voq[i][j]) < o.voqCap
	if got := o.dp().Enqueue(i, j, v); got != want {
		o.t.Fatalf("Enqueue(%d,%d) accepted %v with %d queued, cap %d", i, j, got, len(o.voq[i][j]), o.voqCap)
	}
	if want {
		o.voq[i][j] = append(o.voq[i][j], v)
	}
}

// stage stages a new item on input i.
func (o *storeOracle) stage(i int) {
	v := o.next
	o.next++
	k := o.dp().Stage(i, v)
	if _, dup := o.staged[i][k]; dup {
		o.t.Fatalf("Stage(%d) returned slot %d, already staged", i, k)
	}
	o.staged[i][k] = v
}

// pick returns input i's staged slot number pos (mod their count) in
// ascending slot order; ok is false when none is staged.
func (o *storeOracle) pick(i, pos int) (k int32, ok bool) {
	if len(o.staged[i]) == 0 {
		return 0, false
	}
	slots := make([]int32, 0, len(o.staged[i]))
	for k := range o.staged[i] {
		slots = append(slots, k)
	}
	slices.Sort(slots)
	return slots[pos%len(slots)], true
}

// enqueueStaged links one of input i's staged slots into VOQ (i,j).
func (o *storeOracle) enqueueStaged(i, j, pos int) {
	k, ok := o.pick(i, pos)
	if !ok {
		return
	}
	want := o.voqCap == 0 || len(o.voq[i][j]) < o.voqCap
	if got := o.dp().EnqueueStaged(i, j, k); got != want {
		o.t.Fatalf("EnqueueStaged(%d,%d,%d) accepted %v with %d queued, cap %d", i, j, k, got, len(o.voq[i][j]), o.voqCap)
	}
	if want {
		o.voq[i][j] = append(o.voq[i][j], o.staged[i][k])
		delete(o.staged[i], k)
	}
}

// unstage frees one of input i's staged slots.
func (o *storeOracle) unstage(i, pos int) {
	k, ok := o.pick(i, pos)
	if !ok {
		return
	}
	if v := o.dp().Unstage(i, k); v != o.staged[i][k] {
		o.t.Fatalf("Unstage(%d,%d) = %d, staged %d", i, k, v, o.staged[i][k])
	}
	delete(o.staged[i], k)
}

// popRef checks v against the head of *q and removes it.
func (o *storeOracle) popRef(what string, q *[]int, v int, ok bool) {
	o.t.Helper()
	if ok != (len(*q) > 0) {
		o.t.Fatalf("%s: ok %v with %d in the reference", what, ok, len(*q))
	}
	if !ok {
		return
	}
	if v != (*q)[0] {
		o.t.Fatalf("%s: got %d, reference head %d", what, v, (*q)[0])
	}
	*q = (*q)[1:]
}

func (o *storeOracle) flush(i, j int) {
	var got []int
	k := o.dp().FlushVOQ(i, j, func(v int) { got = append(got, v) })
	want := append(append([]int(nil), o.voq[i][j]...), o.xp[i][j]...)
	if k != len(want) || !equalInts(got, want) {
		o.t.Fatalf("FlushVOQ(%d,%d) = %d %v, want %v", i, j, k, got, want)
	}
	o.voq[i][j], o.xp[i][j] = nil, nil
}

// dispatch runs input i's CICQ dispatch arbiter and moves whichever VOQ
// head it sent into the reference crosspoint.
func (o *storeOracle) dispatch(i int) {
	o.cicq.SnapshotRow(i)
	for j := 0; j < o.n; j++ {
		if o.cicq.slabs[i].len(j) == len(o.voq[i][j])-1 {
			o.xp[i][j] = append(o.xp[i][j], o.voq[i][j][0])
			o.voq[i][j] = o.voq[i][j][1:]
			return
		}
	}
}

// slot arbitrates and takes every grant, handing back the ones whose bit
// in untake is set.
func (o *storeOracle) slot(untake byte) {
	ref := o.voq
	var g *sched.GrantSet
	if o.cicq != nil {
		ref = o.xp
		g = o.cicq.Arbitrate(nil)
	} else {
		o.core.SnapshotAll()
		g = o.core.Arbitrate(greedy{o.n})
	}
	for j, i := range g.Src {
		if i == matching.Unmatched {
			continue
		}
		v, ok := o.dp().Take(j)
		if !ok {
			o.t.Fatalf("Take(%d) from input %d found nothing", j, i)
		}
		o.popRef("Take", &ref[i][j], v, ok)
		if untake>>(j%8)&1 == 1 {
			o.dp().Untake(j, v)
			ref[i][j] = append([]int{v}, ref[i][j]...)
		}
	}
}

// check compares every VOQ with the reference and audits the ledger.
func (o *storeOracle) check(what string) {
	o.t.Helper()
	d := o.dp()
	for i := 0; i < o.n; i++ {
		backlog := 0
		for j := 0; j < o.n; j++ {
			if got := voqItems(o.store, i, j); !equalInts(got, o.voq[i][j]) {
				o.t.Fatalf("%s: VOQ (%d,%d) holds %v, reference %v", what, i, j, got, o.voq[i][j])
			}
			l := len(o.voq[i][j]) + len(o.xp[i][j])
			backlog += l
			if d.Len(i, j) != l {
				o.t.Fatalf("%s: Len(%d,%d) = %d, reference %d", what, i, j, d.Len(i, j), l)
			}
			if d.HasBacklog(i, j) != (l > 0) || d.OccupiedRow(i).Get(j) != (l > 0) {
				o.t.Fatalf("%s: pair (%d,%d) occupancy disagrees with length %d", what, i, j, l)
			}
			if o.cicq != nil {
				if x := o.cicq.xps[i*o.n+j].Len(); x != len(o.xp[i][j]) {
					o.t.Fatalf("%s: crosspoint (%d,%d) holds %d, reference %d", what, i, j, x, len(o.xp[i][j]))
				}
				if o.cicq.voqOcc.Get(i, j) != (len(o.voq[i][j]) > 0) {
					o.t.Fatalf("%s: VOQ (%d,%d) dispatch bit disagrees with length %d", what, i, j, len(o.voq[i][j]))
				}
			}
		}
		if d.InputBacklog(i) != backlog {
			o.t.Fatalf("%s: InputBacklog(%d) = %d, reference %d", what, i, d.InputBacklog(i), backlog)
		}
		checkSlab(o.t, o.store, i, o.staged[i], what)
		size := len(o.store.slabs[i].items)
		o.peak = max(o.peak, size)
		if len(o.staged[i]) > 0 && size > slabInitial {
			o.stagedGrowth = max(o.stagedGrowth, size)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}

var (
	oracleWidths = []int{1, 2, 63, 65}
	oracleCaps   = []int{1, 2, 256}
)

// FuzzVOQStore holds both datapaths' VOQ stores to a slice-per-VOQ
// reference. shape picks the width, the VOQ bound and the datapath; each
// three bytes of script are one operation — Enqueue, Dequeue, Requeue
// (past the bound), a slot of Take with some grants handed back by
// Untake, FlushVOQ, Stage, EnqueueStaged, Unstage, and on CICQ a
// dispatch on one input or on all — and every VOQ's items, Len,
// HasBacklog, OccupiedRow, InputBacklog, the staged items and the slab's
// slot count are checked after each. Most operations land on inputs 0–2,
// so their slabs double several times. Besides the random scripts, the
// corpus holds stagingScript on every shape: it stages past a doubling.
func FuzzVOQStore(f *testing.F) {
	for shape := 0; shape < oracleShapes; shape++ {
		r := rng.NewPCG32(uint64(shape), 0x51AB)
		script := make([]byte, 2400)
		for k := range script {
			script[k] = byte(r.Next())
		}
		f.Add(uint8(shape), script)
		f.Add(uint8(shape), stagingScript(shape))
	}
	f.Fuzz(func(t *testing.T, shape uint8, script []byte) {
		runStoreScript(t, shape, script)
	})
}

// oracleShapes is the number of distinct FuzzVOQStore shapes: every
// width and bound on both datapaths.
var oracleShapes = 2 * len(oracleWidths) * len(oracleCaps)

// Script operations: op%8 picks the family; opStaged's bits 3–4 pick
// Stage (twice as likely), EnqueueStaged or Unstage, and bits 5–7 which
// staged slot.
const (
	opDequeue = 3
	opRequeue = 4
	opSlot    = 5
	opFlush   = 6
	opStaged  = 7
)

// runStoreScript runs one FuzzVOQStore case and returns its oracle.
func runStoreScript(t *testing.T, shape uint8, script []byte) *storeOracle {
	n := oracleWidths[int(shape)%len(oracleWidths)]
	voqCap := oracleCaps[int(shape)/len(oracleWidths)%len(oracleCaps)]
	crosspoint := int(shape)/(len(oracleWidths)*len(oracleCaps))%2 == 1
	o := newStoreOracle(t, n, voqCap, crosspoint)
	for k := 0; k+2 < len(script); k += 3 {
		op, bi, bj := script[k], script[k+1], script[k+2]
		i, j := int(bi)%n, int(bj)%n
		if bi < 192 {
			i = int(bi) % min(n, 3)
		}
		what := "enqueue"
		switch op % 8 {
		case 0, 1, 2:
			o.enqueue(i, j)
		case opDequeue:
			what = "dequeue"
			if crosspoint {
				what = "dispatch"
				o.dispatch(i)
			} else {
				v, ok := o.core.Dequeue(i, j)
				o.popRef("Dequeue", &o.voq[i][j], v, ok)
			}
		case opRequeue:
			what = "requeue"
			if crosspoint {
				what = "dispatch all"
				for i := 0; i < n; i++ {
					o.dispatch(i)
				}
			} else {
				o.core.Requeue(i, j, o.next)
				o.voq[i][j] = append([]int{o.next}, o.voq[i][j]...)
				o.next++
			}
		case opSlot:
			what = "slot"
			o.slot(bi)
		case opFlush:
			if bj < 32 {
				what = "flush"
				o.flush(i, j)
			} else {
				o.enqueue(i, (j+1)%n)
			}
		case opStaged:
			pos := int(op >> 5)
			switch op >> 3 & 3 {
			case 0, 1:
				what = "stage"
				o.stage(i)
			case 2:
				what = "enqueue staged"
				o.enqueueStaged(i, j, pos)
			case 3:
				what = "unstage"
				o.unstage(i, pos)
			}
		}
		o.check(what)
	}
	return o
}

// stagingScript is a FuzzVOQStore script that stages past a slab
// doubling: input 0 stages 4·slabInitial items while enqueueing beside
// them, links some of them into VOQs, unstages others, and serves slots
// in between, so staged slots survive growth and are reused after it.
func stagingScript(shape int) []byte {
	var script []byte
	op := func(code, bi, bj byte) { script = append(script, code, bi, bj) }
	const (
		stage         = opStaged
		enqueueStaged = opStaged | 2<<3
		unstage       = opStaged | 3<<3
	)
	for k := 0; k < 4*slabInitial; k++ {
		op(stage, 0, byte(k))
		if k%3 == 0 {
			op(0, 0, byte(k+1))
		}
	}
	for k := 0; k < 2*slabInitial; k++ {
		op(enqueueStaged|byte(k%8)<<5, 0, byte(k))
		op(unstage|byte(k%5)<<5, 0, byte(k))
		op(opSlot, byte(shape+k), 0)
		op(stage, 1, byte(k))
	}
	return script
}

// TestVOQStoreStagesPastGrowth checks that stagingScript reaches what
// it is in the corpus for on every shape: a slab grown past its first
// size while holding staged slots.
func TestVOQStoreStagesPastGrowth(t *testing.T) {
	for shape := 0; shape < oracleShapes; shape++ {
		o := runStoreScript(t, uint8(shape), stagingScript(shape))
		if o.stagedGrowth < 2*slabInitial {
			t.Fatalf("shape %d: largest slab holding staged slots %d, want ≥ %d", shape, o.stagedGrowth, 2*slabInitial)
		}
	}
}

// TestVOQStoreOracleGrows checks that the seed corpus reaches what
// FuzzVOQStore is for: slabs several doublings past their first size.
func TestVOQStoreOracleGrows(t *testing.T) {
	r := rng.NewPCG32(11, 0x51AB)
	for _, crosspoint := range []bool{false, true} {
		o := newStoreOracle(t, 65, 256, crosspoint)
		for k := 0; k < 400; k++ {
			o.enqueue(r.Intn(3), r.Intn(65))
			if k%4 == 0 {
				o.check("enqueue")
			}
		}
		for k := 0; k < 200; k++ {
			if crosspoint {
				o.dispatch(r.Intn(3))
			}
			o.slot(byte(r.Next()))
		}
		o.check("slots")
		if o.peak < 16*slabInitial {
			t.Fatalf("crosspoint=%v: largest slab %d slots, want ≥ %d", crosspoint, o.peak, 16*slabInitial)
		}
	}
}

// TestVOQStoreFootprint pins what an empty datapath costs: the 64-port
// VOQ core with VOQs bounded at 256 and a 64-byte item allocates at most
// 256 KB when built. One ring per VOQ, each starting at 16 slots, took
// 4.3 MB.
func TestVOQStoreFootprint(t *testing.T) {
	const limit = 256 << 10
	best := uint64(math.MaxUint64)
	for k := 0; k < 3; k++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		c := New[[64]byte](64, 256)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(c)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if best > limit {
		t.Fatalf("New[[64]byte](64, 256) allocates %d KB, want ≤ %d KB", best>>10, limit>>10)
	}
	t.Logf("New[[64]byte](64, 256) allocates %d KB", best>>10)
}

// BenchmarkVOQStoreN64 measures the VOQ store alone under Enqueue/Dequeue
// churn with a 64-byte item. One op is one slot at n = 64: each input
// admits an item with probability 0.9 to a uniform output, then each
// input in turn sends the head of its next occupied VOQ, round-robin,
// whose output no earlier input took this slot. Arrivals are drawn
// before the timer starts, and a warm-up lets the slabs reach their
// working size, so the op is store work and allocates nothing.
func BenchmarkVOQStoreN64(b *testing.B) {
	const n, load = 64, 0.9
	c := New[[64]byte](n, 256)
	r := rng.NewPCG32(n, 0x5AB)
	dst := make([]int8, 1<<16) // -1: no arrival
	for k := range dst {
		dst[k] = -1
		if r.Bool(load) {
			dst[k] = int8(r.Intn(n))
		}
	}
	ptr := make([]int, n)
	outFree := bitvec.New(n)
	var item [64]byte
	at := 0
	slot := func() {
		for i := 0; i < n; i++ {
			if j := dst[at]; j >= 0 {
				item[0] = byte(at)
				c.Enqueue(i, int(j), item)
			}
			at = (at + 1) & (len(dst) - 1)
		}
		outFree.SetAll()
		for i := 0; i < n; i++ {
			j := c.OccupiedRow(i).FirstSetFromAnd(outFree, ptr[i])
			if j < 0 {
				continue
			}
			c.Dequeue(i, j)
			outFree.Clear(j)
			if ptr[i] = j + 1; ptr[i] == n {
				ptr[i] = 0
			}
		}
	}
	for w := 0; w < 20000; w++ {
		slot()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		slot()
	}
	b.StopTimer()
	b.ReportMetric(float64(c.TotalBacklog())/n, "frames/input")
}
