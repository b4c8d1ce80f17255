package switchcore

import (
	"testing"

	"repro/internal/conserve"
	"repro/internal/matching"
	"repro/internal/rng"
	"repro/internal/sched"
)

// frame carries enough identity to verify exact, per-flow frame
// conservation: every pulled frame must leave at its own destination.
type frame struct {
	src, dst, seq int
}

// driver exercises a CICQ datapath through seeded slots — admissions,
// dispatch, pull, faults, flushes — asserting the conservation identity
// and the grant/fault invariants after every slot.
type driver struct {
	t     *testing.T
	c     *CICQ[frame]
	rng   *rng.PCG32
	n     int
	xpCap int
	seq   int
	load  float64

	inDown, outDown []bool

	injected, delivered, dropped int64
}

func newDriver(t *testing.T, n, voqCap, xpCap int, seed uint64) *driver {
	t.Helper()
	return &driver{
		t:       t,
		c:       NewCICQ[frame](n, voqCap, xpCap, false),
		rng:     rng.NewPCG32(seed, 0x21C0),
		n:       n,
		xpCap:   xpCap,
		load:    0.7,
		inDown:  make([]bool, n),
		outDown: make([]bool, n),
	}
}

// slot runs one full CICQ slot in the engine's order: faults, then
// dispatch (SnapshotRow), pull (Arbitrate/Take), admissions, audit.
// withFaults also flips links and flushes stranded VOQs, exercising the
// drop path.
func (d *driver) slot(slot int64, withFaults bool) {
	t, c, n := d.t, d.c, d.n
	t.Helper()

	if withFaults {
		// Rare transitions so links spend long stretches in each state.
		for p := 0; p < n; p++ {
			if d.rng.Bool(0.02) {
				d.inDown[p] = !d.inDown[p]
				c.SetInputDown(p, d.inDown[p])
			}
			if d.rng.Bool(0.02) {
				d.outDown[p] = !d.outDown[p]
				c.SetOutputDown(p, d.outDown[p])
			}
		}
		// Occasionally drop a down pair's stranded frames, VOQ and
		// crosspoint alike — the DropStranded sweep in miniature.
		if d.rng.Bool(0.05) {
			i, j := d.rng.Intn(n), d.rng.Intn(n)
			if d.inDown[i] || d.outDown[j] {
				d.dropped += int64(c.FlushVOQ(i, j, func(frame) {}))
			}
		}
	}

	c.ResetOutputMask()
	for i := 0; i < n; i++ {
		requested, masked, faulted := c.SnapshotRow(i)
		if masked != 0 {
			t.Fatalf("slot %d: dispatch reported %d masked bits; dispatch ignores backpressure masks", slot, masked)
		}
		if d.inDown[i] && requested != 0 {
			t.Fatalf("slot %d: down input %d requested %d", slot, i, requested)
		}
		if requested < 0 || faulted < 0 {
			t.Fatalf("slot %d: negative snapshot counts %d/%d", slot, requested, faulted)
		}
	}

	g := c.Arbitrate(nil)
	for j := 0; j < n; j++ {
		i := g.Src[j]
		if i == matching.Unmatched {
			if _, ok := c.Take(j); ok {
				t.Fatalf("slot %d: Take(%d) succeeded without a grant", slot, j)
			}
			continue
		}
		if d.inDown[i] || d.outDown[j] {
			t.Fatalf("slot %d: grant %d→%d touches a down link", slot, i, j)
		}
		if g.Rule[j] != sched.RuleLCF {
			t.Fatalf("slot %d: grant %d→%d attributed to %v", slot, i, j, g.Rule[j])
		}
		if g.Choices[j] <= 0 {
			t.Fatalf("slot %d: grant %d→%d with %d choices", slot, i, j, g.Choices[j])
		}
		f, ok := c.Take(j)
		if !ok {
			t.Fatalf("slot %d: granted crosspoint (%d,%d) was empty", slot, i, j)
		}
		if f.src != i || f.dst != j {
			t.Fatalf("slot %d: output %d pulled frame %d→%d from crosspoint row %d", slot, j, f.src, f.dst, i)
		}
		d.delivered++
	}

	for i := 0; i < n; i++ {
		if !d.rng.Bool(d.load) {
			continue
		}
		dst := d.rng.Intn(n)
		d.seq++
		if c.Enqueue(i, dst, frame{src: i, dst: dst, seq: d.seq}) {
			d.injected++
		}
	}

	d.audit(slot)
}

func (d *driver) audit(slot int64) {
	d.t.Helper()
	terms := conserve.Terms{
		Scope:     "cicq",
		Slot:      slot,
		Injected:  d.injected,
		Delivered: d.delivered,
		Dropped:   d.dropped,
		Resident:  int64(d.c.TotalBacklog()),
	}
	if err := terms.Check(); err != nil {
		d.t.Fatal(err)
	}
	if xp := d.c.CrosspointFrames(); xp < 0 || xp > d.n*d.n*d.xpCap {
		d.t.Fatalf("slot %d: %d crosspoint frames outside [0, %d]", slot, xp, d.n*d.n*d.xpCap)
	}
	if occ := d.c.CrosspointsOccupied(); occ < 0 || occ > d.n*d.n {
		d.t.Fatalf("slot %d: %d occupied crosspoints outside [0, %d]", slot, occ, d.n*d.n)
	}
}

// drain runs fault-free slots with no admissions until the core empties
// (bounded), so every test run also covers complete drainage.
func (d *driver) drain(from int64) {
	d.t.Helper()
	for p := 0; p < d.n; p++ {
		if d.inDown[p] {
			d.inDown[p] = false
			d.c.SetInputDown(p, false)
		}
		if d.outDown[p] {
			d.outDown[p] = false
			d.c.SetOutputDown(p, false)
		}
	}
	load := d.load
	d.load = 0
	// Each slot delivers ≥1 frame while backlog remains (all links up),
	// so TotalBacklog slots always suffice.
	for slot, limit := from, from+int64(d.c.TotalBacklog())+1; d.c.TotalBacklog() > 0; slot++ {
		if slot > limit {
			d.t.Fatalf("core failed to drain: %d frames stuck after %d slots", d.c.TotalBacklog(), slot-from)
		}
		d.slot(slot, false)
	}
	d.load = load
}

// TestCICQConservationWidths sweeps odd and word-boundary widths, with and
// without fault schedules, checking the conservation identity after
// every slot and full drainage at the end.
func TestCICQConservationWidths(t *testing.T) {
	for _, n := range []int{1, 2, 3, 9, 17, 31, 33, 63, 64, 65, 127, 129} {
		slots := 400
		if n > 65 {
			slots = 120 // the big widths cover last-word masking, not volume
		}
		for _, faults := range []bool{false, true} {
			name := "clean"
			if faults {
				name = "faulty"
			}
			t.Run(name, func(t *testing.T) {
				d := newDriver(t, n, 16, 2, uint64(n)*7+1)
				for s := 0; s < slots; s++ {
					d.slot(int64(s), faults)
				}
				d.drain(int64(slots))
			})
		}
	}
}

// TestCrosspointCapacityBound pins the xpCap contract under a hotspot:
// every input targets output 0, xpCap 1, so at most n crosspoint frames
// exist and dispatch must regularly find the column full.
func TestCrosspointCapacityBound(t *testing.T) {
	const n = 8
	c := NewCICQ[frame](n, 64, 1, false)
	injected, delivered := 0, 0
	for s := 0; s < 200; s++ {
		for i := 0; i < n; i++ {
			if c.Enqueue(i, 0, frame{src: i, dst: 0, seq: s*n + i}) {
				injected++
			}
		}
		for i := 0; i < n; i++ {
			c.SnapshotRow(i)
		}
		if xp := c.CrosspointFrames(); xp > n {
			t.Fatalf("slot %d: %d crosspoint frames with xpCap 1 and one hot column", s, xp)
		}
		g := c.Arbitrate(nil)
		for j := 0; j < n; j++ {
			if g.Src[j] == matching.Unmatched {
				continue
			}
			if _, ok := c.Take(j); ok {
				delivered++
			}
		}
	}
	// One hot output delivers exactly one frame per slot once primed.
	if delivered < 190 {
		t.Fatalf("hot output delivered %d frames in 200 slots", delivered)
	}
	if got := injected - delivered - c.TotalBacklog(); got != 0 {
		t.Fatalf("conservation leak %d", got)
	}
}

// TestCICQUntakeRestores verifies Untake is Take's exact inverse: state
// after Take+Untake equals state before, and the frame is re-pulled
// first on the next slot (PushFront ordering).
func TestCICQUntakeRestores(t *testing.T) {
	const n = 4
	c := NewCICQ[frame](n, 8, 2, false)
	c.Enqueue(1, 2, frame{src: 1, dst: 2, seq: 1})
	c.Enqueue(1, 2, frame{src: 1, dst: 2, seq: 2})
	for i := 0; i < n; i++ {
		c.SnapshotRow(i)
	}
	g := c.Arbitrate(nil)
	if g.Src[2] != 1 {
		t.Fatalf("output 2 granted %d, want 1", g.Src[2])
	}
	before := [3]int{c.TotalBacklog(), c.CrosspointFrames(), c.Len(1, 2)}
	f, ok := c.Take(2)
	if !ok || f.seq != 1 {
		t.Fatalf("Take(2) = %+v, %v", f, ok)
	}
	c.Untake(2, f)
	after := [3]int{c.TotalBacklog(), c.CrosspointFrames(), c.Len(1, 2)}
	if before != after {
		t.Fatalf("Untake did not restore state: %v → %v", before, after)
	}
	for i := 0; i < n; i++ {
		c.SnapshotRow(i)
	}
	c.Arbitrate(nil)
	f2, ok := c.Take(2)
	if !ok || f2.seq != 1 {
		t.Fatalf("re-pull after Untake = %+v, %v; want seq 1 first", f2, ok)
	}
}

// TestDispatchIgnoresOutputMask pins the decoupling that defines CICQ:
// a masked (backpressured) output still receives dispatched frames into
// its crosspoints; only the pull arbiter honors the mask.
func TestDispatchIgnoresOutputMask(t *testing.T) {
	const n = 4
	c := NewCICQ[frame](n, 8, 2, false)
	c.Enqueue(0, 1, frame{src: 0, dst: 1, seq: 1})
	c.ResetOutputMask()
	c.MaskOutput(1)
	for i := 0; i < n; i++ {
		c.SnapshotRow(i)
	}
	if c.CrosspointFrames() != 1 {
		t.Fatalf("masked output blocked dispatch: %d crosspoint frames", c.CrosspointFrames())
	}
	g := c.Arbitrate(nil)
	if g.Src[1] != matching.Unmatched {
		t.Fatalf("pull arbiter granted masked output: %d", g.Src[1])
	}
	// Unmasked next slot, the frame flows.
	c.ResetOutputMask()
	for i := 0; i < n; i++ {
		c.SnapshotRow(i)
	}
	g = c.Arbitrate(nil)
	if g.Src[1] != 0 {
		t.Fatalf("output 1 granted %d after unmask, want 0", g.Src[1])
	}
}

// TestLeastChoiceDispatch pins the localized LCF rule on the dispatch
// side: with VOQs for a contested column (many occupied crosspoints)
// and an uncontested one, dispatch must pick the uncontested column.
func TestLeastChoiceDispatch(t *testing.T) {
	const n = 4
	c := NewCICQ[frame](n, 8, 4, false)
	// Fill column 0 with frames from inputs 1..3 so colCnt[0] = 3.
	for i := 1; i < n; i++ {
		c.Enqueue(i, 0, frame{src: i, dst: 0, seq: i})
		c.SnapshotRow(i)
	}
	// Input 0 can send to column 0 (3 occupied crosspoints) or column 3
	// (empty): least-choice dispatch must pick column 3.
	c.Enqueue(0, 0, frame{src: 0, dst: 0, seq: 10})
	c.Enqueue(0, 3, frame{src: 0, dst: 3, seq: 11})
	c.SnapshotRow(0)
	// Len counts combined VOQ+crosspoint residency, so observe the
	// choice through the pull side: column 3 is occupied only if
	// dispatch picked it.
	g := c.Arbitrate(nil)
	if g.Src[3] != 0 {
		t.Fatalf("output 3 granted %d; dispatch did not pick the uncontested column", g.Src[3])
	}
}

// FuzzCICQSlots fuzzes width, capacities and seed through the full
// seeded driver — conservation is asserted every slot and the core must
// drain clean afterwards.
func FuzzCICQSlots(f *testing.F) {
	f.Add(uint16(3), uint8(1), uint64(1))
	f.Add(uint16(17), uint8(2), uint64(42))
	f.Add(uint16(64), uint8(3), uint64(7))
	f.Add(uint16(129), uint8(1), uint64(1337))
	f.Fuzz(func(t *testing.T, width uint16, xp uint8, seed uint64) {
		n := int(width)%129 + 1 // 1..129 covers {1..65} and both 127/129 word edges
		xpCap := int(xp)%4 + 1
		slots := 80
		if n > 32 {
			slots = 30
		}
		d := newDriver(t, n, 8, xpCap, seed)
		for s := 0; s < slots; s++ {
			d.slot(int64(s), true)
		}
		d.drain(int64(slots))
	})
}

// benchmarkCICQDecision measures one full CICQ arbitration cycle — n
// dispatch decisions (SnapshotRow) plus the n pull decisions
// (Arbitrate) and pulls (Take) — against a core held at a steady ~0.9
// occupancy, the CICQ counterpart of the scheduler-decision benchmarks.
// The hot path must not allocate.
func benchmarkCICQDecision(b *testing.B, n int) {
	c := NewCICQ[int](n, 64, 4, true)
	r := rng.NewPCG32(uint64(n), 0xBE)
	// Prime to a steady working set.
	for s := 0; s < 4*n; s++ {
		for i := 0; i < n; i++ {
			if r.Bool(0.9) {
				c.Enqueue(i, r.Intn(n), s)
			}
		}
		for i := 0; i < n; i++ {
			c.SnapshotRow(i)
		}
		g := c.Arbitrate(nil)
		for j := 0; j < n; j++ {
			if g.Src[j] != matching.Unmatched {
				c.Take(j)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		for i := 0; i < n; i++ {
			if r.Bool(0.9) {
				c.Enqueue(i, r.Intn(n), k)
			}
		}
		for i := 0; i < n; i++ {
			c.SnapshotRow(i)
		}
		g := c.Arbitrate(nil)
		for j := 0; j < n; j++ {
			if g.Src[j] != matching.Unmatched {
				c.Take(j)
			}
		}
	}
}

func BenchmarkCICQDecisionN64(b *testing.B)  { benchmarkCICQDecision(b, 64) }
func BenchmarkCICQDecisionN256(b *testing.B) { benchmarkCICQDecision(b, 256) }
