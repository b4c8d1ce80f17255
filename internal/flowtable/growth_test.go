package flowtable

import (
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"repro/internal/rng"
)

// refScriptPorts is the port count of every reference script.
const refScriptPorts = 8

// refCoverage is what one reference script reached: the most doublings
// any shard made, and the full-size refusals by each rule.
type refCoverage struct {
	shards      int
	rehome      RehomePolicy
	policy      string
	doublings   int
	fullByLoad  int
	fullByProbe int
}

// driveAgainstReference runs one byte script on a Table and on the
// fixed-size refTable, both over the same ports, and fails t at the
// first step where any return value, Stats (Buckets aside), Epoch,
// Fairness or the Range set differs.
//
// Script layout: byte 0 picks the shard count (bit 0: 64, else 1), the
// policy (bits 1–2), the rehome policy (bit 3) and a small MaxProbe
// (bit 4); byte 1 scales Capacity; byte 2 is the small MaxProbe; byte 3
// the hash seed. Then 3-byte steps: an opcode and a 16-bit argument.
func driveAgainstReference(t *testing.T, script []byte) refCoverage {
	t.Helper()
	if len(script) < 4 {
		return refCoverage{}
	}
	c0, c1 := script[0], int(script[1])
	cfg := Config{
		Ports:  newFakePorts(refScriptPorts),
		Shards: 1,
		Policy: Names()[int(c0>>1&3)%len(Names())],
		Seed:   uint64(script[3]) * 0x9e3779b97f4a7c15,
	}
	if c0&1 != 0 {
		cfg.Shards = 64
		cfg.Capacity = 64 * (1 + c1%48) // full size 16–128 buckets a shard
	} else {
		cfg.Capacity = 16 + 4*c1 // full size 64–4096 buckets
	}
	if c0&8 != 0 {
		cfg.Rehome = RehomeOnDown
	}
	if c0&16 != 0 {
		cfg.MaxProbe = 1 + int(script[2]%8)
	}
	pv := cfg.Ports.(*fakePorts)
	tbl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefTable(cfg)
	cov := refCoverage{shards: len(tbl.shards), rehome: cfg.Rehome, policy: cfg.Policy}
	_, full := tbl.Caps()

	var next uint64 // ids 0..next-1 have been offered
	steer := func(step int, id uint64) {
		p, d, err := tbl.Steer(id)
		rp, rd, rerr := ref.Steer(id)
		if p != rp || d != rd || err != rerr {
			t.Fatalf("step %d: Steer(%d) = %d, %v, %v; reference %d, %v, %v", step, id, p, d, err, rp, rd, rerr)
		}
		if err == nil {
			return
		}
		s := &tbl.shards[tbl.hash(id)&tbl.shardMask]
		if len(s.ents) != full {
			t.Fatalf("step %d: ErrTableFull from a shard of %d buckets, full size %d", step, len(s.ents), full)
		}
		if s.used >= len(s.ents)/2 {
			cov.fullByLoad++
		} else {
			cov.fullByProbe++
		}
	}
	for k, step := 4, 0; k+3 <= len(script); k, step = k+3, step+1 {
		op, x := script[k]%9, int(script[k+1])<<8|int(script[k+2])
		switch op {
		case 0: // a burst of new flows
			for n := x%64 + 1; n > 0; n-- {
				steer(step, next)
				next++
			}
		case 1: // a frame of an offered flow, resident or not
			steer(step, uint64(x)%(next+1))
		case 2:
			id := uint64(x) % (next + 1)
			p, sv, ok := tbl.Lookup(id)
			rp, rsv, rok := ref.Lookup(id)
			if p != rp || sv != rsv || ok != rok {
				t.Fatalf("step %d: Lookup(%d) = %d, %d, %v; reference %d, %d, %v", step, id, p, sv, ok, rp, rsv, rok)
			}
		case 3:
			id := uint64(x) % (next + 1)
			if got, want := tbl.Evict(id), ref.Evict(id); got != want {
				t.Fatalf("step %d: Evict(%d) = %v; reference %v", step, id, got, want)
			}
		case 4:
			if got, want := tbl.AdvanceEpoch(), ref.AdvanceEpoch(); got != want {
				t.Fatalf("step %d: AdvanceEpoch = %d; reference %d", step, got, want)
			}
		case 5:
			if got, want := tbl.EvictIdle(uint32(x%4)), ref.EvictIdle(uint32(x%4)); got != want {
				t.Fatalf("step %d: EvictIdle(%d) = %d; reference %d", step, x%4, got, want)
			}
		case 6:
			pv.fail(x % refScriptPorts)
		case 7:
			pv.recover(x % refScriptPorts)
		case 8:
			pv.set(x%refScriptPorts, int64(x>>3))
		}
		checkAgainstReference(t, step, tbl, ref)
	}
	for si := range tbl.shards {
		if d := bits.Len(uint(len(tbl.shards[si].ents)/minBuckets)) - 1; d > cov.doublings {
			cov.doublings = d
		}
	}
	return cov
}

// checkAgainstReference compares everything a caller can read off the
// two tables.
func checkAgainstReference(t *testing.T, step int, tbl *Table, ref *refTable) {
	t.Helper()
	got, want := tbl.Stats(), ref.Stats()
	nshards, full := tbl.Caps()
	if got.Buckets < 2*got.Resident || got.Buckets > int64(nshards*full) {
		t.Fatalf("step %d: %d buckets for %d resident flows (full size %d)", step, got.Buckets, got.Resident, nshards*full)
	}
	for si := range tbl.shards {
		if s := &tbl.shards[si]; 2*s.used > len(s.ents) {
			t.Fatalf("step %d: shard %d holds %d flows in %d buckets", step, si, s.used, len(s.ents))
		}
	}
	got.Buckets = want.Buckets
	if got != want {
		t.Fatalf("step %d: Stats %+v; reference %+v", step, got, want)
	}
	if tbl.Epoch() != ref.epoch {
		t.Fatalf("step %d: Epoch %d; reference %d", step, tbl.Epoch(), ref.epoch)
	}
	if f, rf := tbl.Fairness(), ref.Fairness(); !reflect.DeepEqual(f, rf) {
		t.Fatalf("step %d: Fairness %+v; reference %+v", step, f, rf)
	}
	type flow struct {
		port   int
		served uint64
	}
	set := make(map[uint64]flow)
	tbl.Range(func(id uint64, port int, served uint64) { set[id] = flow{port, served} })
	n := 0
	ref.Range(func(id uint64, port int, served uint64) {
		n++
		if f, ok := set[id]; !ok || f != (flow{port, served}) {
			t.Fatalf("step %d: Range has flow %d as %+v (present %v); reference port %d served %d", step, id, f, ok, port, served)
		}
	})
	if n != len(set) {
		t.Fatalf("step %d: Range visits %d flows; reference %d", step, len(set), n)
	}
}

// referenceSeeds are the fuzz target's seed scripts, drawn from a fixed
// generator: both shard counts, every policy, both rehome policies,
// shards driven through at least three doublings to full size, and
// full-size refusals by load and, under a small MaxProbe, by probe
// length. TestReferenceSeedsCover holds them to that.
func referenceSeeds() [][]byte {
	type seed struct {
		cfg, capacity, probe byte
		steps                int
		fill                 bool // no idle sweeps, so every shard fills
	}
	seeds := []seed{
		{cfg: 0b00000, capacity: 96, steps: 500},             // 1 shard, hash, keep: 16 → 512 buckets
		{cfg: 0b01010, capacity: 120, steps: 600},            // 1 shard, least, rehome
		{cfg: 0b10100, capacity: 60, probe: 2, steps: 400},   // 1 shard, po2, keep, MaxProbe 3
		{cfg: 0b11000, capacity: 40, probe: 0, steps: 300},   // 1 shard, hash, rehome, MaxProbe 1
		{cfg: 0b00001, capacity: 31, steps: 500, fill: true}, // 64 shards, hash, keep: 16 → 128 buckets
		{cfg: 0b01101, capacity: 31, steps: 700},             // 64 shards, po2, rehome
		{cfg: 0b10011, capacity: 15, probe: 1, steps: 400},   // 64 shards, least, keep, MaxProbe 2
	}
	var scripts [][]byte
	for k, s := range seeds {
		// Opcode weights: bursts of new flows lead, so shards fill; the
		// rest hit, look up, evict and flap ports.
		weights := [9]int{34, 26, 8, 8, 5, 3, 6, 6, 4}
		if s.fill {
			weights = [9]int{42, 26, 8, 8, 0, 0, 6, 6, 4}
		}
		r := rng.NewPCG32(uint64(k)+1, 45)
		script := []byte{s.cfg, s.capacity, s.probe, byte(k)}
		for step := 0; step < s.steps; step++ {
			w := r.Intn(100)
			op := 0
			for w >= weights[op] {
				w -= weights[op]
				op++
			}
			x := r.Intn(1 << 16)
			script = append(script, byte(op), byte(x>>8), byte(x))
		}
		scripts = append(scripts, script)
	}
	return scripts
}

// FuzzTableMatchesReference holds the growing table to the fixed-size
// one it replaced: every Steer, Lookup, Evict, AdvanceEpoch and
// EvictIdle outcome, Stats, Fairness and the resident set must be
// identical after every step, under port failures and both rehome
// policies. A growing shard refuses nothing until it is at full size,
// and there it refuses exactly what the reference refuses.
func FuzzTableMatchesReference(f *testing.F) {
	for _, s := range referenceSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 3*2000+4 {
			script = script[:3*2000+4]
		}
		driveAgainstReference(t, script)
	})
}

// TestReferenceSeedsCover pins what the fuzz seeds reach, so a change
// to the seed generator cannot quietly drop the interesting regions.
func TestReferenceSeedsCover(t *testing.T) {
	var (
		deep     = map[int]bool{} // shard counts driven through three doublings
		full     = map[int]bool{} // shard counts refused at full size by load
		rehomes  = map[RehomePolicy]bool{}
		policies = map[string]bool{}
		probe    int
	)
	for k, s := range referenceSeeds() {
		cov := driveAgainstReference(t, s)
		t.Logf("seed %d: %+v", k, cov)
		if cov.doublings >= 3 {
			deep[cov.shards] = true
		}
		rehomes[cov.rehome] = true
		policies[cov.policy] = true
		full[cov.shards] = full[cov.shards] || cov.fullByLoad > 0
		probe += cov.fullByProbe
	}
	if !deep[1] || !deep[64] {
		t.Errorf("shard counts driven through three doublings: %v, want 1 and 64", deep)
	}
	if len(rehomes) != 2 || len(policies) != len(Names()) {
		t.Errorf("seeds cover rehome policies %v and steering policies %v", rehomes, policies)
	}
	if !full[1] || !full[64] || probe == 0 {
		t.Errorf("full-size refusals by load at shard counts %v, %d by probe length; want 1 and 64, and some", full, probe)
	}
}

// TestTableFootprint pins the memory the table holds: a 24-byte bucket,
// a few KB for a new table whatever its Capacity, and buckets in
// proportion to the flows resident, not to Capacity.
func TestTableFootprint(t *testing.T) {
	if sz := unsafe.Sizeof(entry{}); sz != 24 {
		t.Errorf("bucket is %d bytes, want 24", sz)
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	tbl := newTestTable(t, Config{Ports: newFakePorts(64), Capacity: 200_000, Seed: 1})
	runtime.ReadMemStats(&ms)
	t.Logf("New(Capacity 200000): %d bytes", ms.TotalAlloc-before)
	if got := ms.TotalAlloc - before; got > 64<<10 {
		t.Errorf("New(Capacity 200000) allocated %d bytes, want at most 64 KB", got)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	for id := uint64(0); id < 100_000; id++ {
		if _, _, err := tbl.Steer(id); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	live := int64(ms.HeapAlloc) - int64(base)
	st := tbl.Stats()
	t.Logf("100000 flows: %d buckets, %d live bytes", st.Buckets, live)
	if live > 7<<20 {
		t.Errorf("100000 resident flows hold %d live bytes, want at most 7 MB", live)
	}
	runtime.KeepAlive(tbl)
}

// mallocs returns the heap objects fn allocates, read exactly from the
// runtime's counters (testing.AllocsPerRun truncates an average). The
// collector is off while fn runs, so its own allocations, which a busy
// host can schedule inside fn, are not counted.
func mallocs(fn func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	fn()
	runtime.ReadMemStats(&ms)
	return ms.Mallocs - before
}

// TestSteerMallocs pins Steer's allocations exactly: none on a hit,
// none admitting and evicting at steady residency, and while shards
// grow at most one bucket array per doubling per shard.
func TestSteerMallocs(t *testing.T) {
	for _, policy := range Names() {
		t.Run(policy, func(t *testing.T) {
			tbl := newTestTable(t, Config{Ports: newFakePorts(16), Capacity: 1 << 16, Policy: policy, Seed: 29})
			const resident = 20_000
			grow := mallocs(func() {
				for id := uint64(0); id < resident; id++ {
					tbl.Steer(id)
				}
			})
			doublings := 0
			for si := range tbl.shards {
				doublings += bits.Len(uint(len(tbl.shards[si].ents)/minBuckets)) - 1
			}
			if grow == 0 || grow > uint64(doublings) {
				t.Errorf("admitting %d flows: %d mallocs for %d doublings, want 1..%d", resident, grow, doublings, doublings)
			}
			if n := mallocs(func() {
				for k := uint64(0); k < 10_000; k++ {
					tbl.Steer(k * 7 % resident)
				}
			}); n != 0 {
				t.Errorf("hit path: %d mallocs in 10000 Steers", n)
			}
			churn := func() {
				for k := uint64(0); k < 10_000; k++ {
					tbl.Steer(resident + k)
					tbl.Evict(resident + k)
				}
			}
			churn() // a shard exactly at ½ load grows on its next admission, once
			if n := mallocs(churn); n != 0 {
				t.Errorf("admit+evict at steady residency: %d mallocs in 10000 rounds", n)
			}
		})
	}
}

// newTableAtEpoch is New with the eviction epoch started at epoch, so a
// test can cross the uint32 wrap in a few hundred AdvanceEpochs.
func newTableAtEpoch(t *testing.T, cfg Config, epoch uint32) *Table {
	t.Helper()
	tbl := newTestTable(t, cfg)
	tbl.epoch.Store(epoch)
	return tbl
}

// stampAhead sets resident flow id's epoch to the table's epoch plus
// ahead, as a Steer racing a mid-sweep AdvanceEpoch would.
func stampAhead(t *testing.T, tbl *Table, id uint64, ahead uint32) {
	t.Helper()
	h := tbl.hash(id)
	s := &tbl.shards[h&tbl.shardMask]
	s.mu.Lock()
	defer s.mu.Unlock()
	i, _, hit := s.find(id, h>>tbl.shardBits)
	if !hit {
		t.Fatalf("flow %d not resident", id)
	}
	s.ents[i].epoch = tbl.epoch.Load() + ahead
}

// TestEvictIdleAcrossEpochWrap runs the uint32 epoch through 2^32: an
// idle sweep must evict exactly the flows idle longer than maxIdle,
// counted in true epochs, and none stamped after the sweep read the
// epoch (TestEvictIdleEpochSkew's half-range rule), whichever side of
// the wrap the sweep and the stamps fall on.
func TestEvictIdleAcrossEpochWrap(t *testing.T) {
	const (
		steps   = 400
		maxIdle = 50
	)
	for _, start := range []uint32{math.MaxUint32 - steps, math.MaxUint32 - steps + 1, math.MaxUint32 - 299} {
		t.Run(fmt.Sprint(start), func(t *testing.T) {
			tbl := newTableAtEpoch(t, Config{Ports: newFakePorts(4), Capacity: 1024, Seed: 3}, start)
			last := make(map[uint64]int) // id → true epoch of its last Steer
			for now := 1; now <= steps; now++ {
				tbl.AdvanceEpoch()
				id := uint64(now)
				for _, id := range []uint64{id, id / 3} { // a new flow, and an older one touched again
					if _, _, err := tbl.Steer(id); err != nil {
						t.Fatal(err)
					}
					last[id] = now
				}
			}
			if got, want := tbl.Epoch(), start+steps; got != want {
				t.Fatalf("epoch %d, want %d", got, want)
			}
			// Two flows stamped one and two epochs past the sweep's view.
			for ahead, id := range []uint64{1 << 40, 1<<40 + 1} {
				if _, _, err := tbl.Steer(id); err != nil {
					t.Fatal(err)
				}
				stampAhead(t, tbl, id, uint32(ahead)+1)
				last[id] = steps
			}
			want := 0
			for _, at := range last {
				if steps-at > maxIdle {
					want++
				}
			}
			if got := tbl.EvictIdle(maxIdle); got != want {
				t.Errorf("EvictIdle(%d) at epoch %d evicted %d flows, want %d", maxIdle, tbl.Epoch(), got, want)
			}
			for id, at := range last {
				if _, _, ok := tbl.Lookup(id); ok != (steps-at <= maxIdle) {
					t.Errorf("flow %d last steered %d epochs before the sweep: resident %v", id, steps-at, ok)
				}
			}
		})
	}
}
