package runtime

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/pifo"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/switchcore"
)

// stormCell is one engine configuration of the instrument storm.
type stormCell struct {
	datapath string
	policy   FaultPolicy
	classes  bool
}

func (c stormCell) String() string {
	tier := "plain"
	if c.classes {
		tier = "classes"
	}
	return fmt.Sprintf("%s/%s/%s", c.datapath, c.policy, tier)
}

// stormCells is every combination the storm covers: both datapaths, both
// fault policies, the class tier off and on.
func stormCells() []stormCell {
	var cells []stormCell
	for _, dp := range switchcore.Names() {
		for _, p := range []FaultPolicy{HoldStranded, DropStranded} {
			for _, classes := range []bool{false, true} {
				cells = append(cells, stormCell{dp, p, classes})
			}
		}
	}
	return cells
}

// instrumentStorm drives a seeded lockstep engine at n = 16 with small
// queues (VOQCap 8, OutCap 4) through slots of hotspot admissions, link
// failures and recoveries and a consumer that leaves a third of the
// outputs unread for stretches, so VOQs fill to their cap, outputs back
// up and get masked, and stranded frames are held or flushed. after runs
// once after every Tick. The engine is returned unclosed: its
// instruments are read as the last slot left them.
func instrumentStorm(t *testing.T, c stormCell, slots int, after func(e *Engine)) *Engine {
	t.Helper()
	const n = 16
	spec := Spec{N: n, Seed: 5, Datapath: c.datapath, VOQCap: 8, OutCap: 4, FaultPolicy: c.policy}
	if c.classes {
		spec.Classes, spec.Rank = "rt:0:4:32,quick:1:2:128,bulk:2:1", pifo.RankDeadline
	}
	cfg, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)

	r := rng.New(41)
	var inDown, outDown [n]bool
	seq := uint64(0)
	for s := 0; s < slots; s++ {
		// Links: a failure now and then, each down link recovering after
		// a while.
		if r.Bool(0.02) {
			p := r.Intn(n)
			if r.Bool(0.5) && !inDown[p] {
				inDown[p] = true
				if err := e.FailInput(p); err != nil {
					t.Fatal(err)
				}
			} else if !outDown[p] {
				outDown[p] = true
				if err := e.FailOutput(p); err != nil {
					t.Fatal(err)
				}
			}
		}
		for p := 0; p < n; p++ {
			if inDown[p] && r.Bool(0.05) {
				inDown[p] = false
				if err := e.RecoverInput(p); err != nil {
					t.Fatal(err)
				}
			}
			if outDown[p] && r.Bool(0.05) {
				outDown[p] = false
				if err := e.RecoverOutput(p); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Admissions: bursts of up to three frames from two inputs in
		// three, a third of them toward output 0, the rest uniform. A
		// class engine ranks nine in ten, some on a budget of their own.
		for i := 0; i < n; i++ {
			if !r.Bool(0.67) {
				continue
			}
			for k := r.Intn(3); k >= 0; k-- {
				dst := r.Intn(n)
				if r.Bool(0.33) {
					dst = 0
				}
				seq++
				req := Request{Src: i, Dst: dst, Seq: seq, Stamp: uint64(s)}
				if c.classes && r.Bool(0.9) {
					req.Classed, req.Class = true, r.Intn(3)
					if r.Bool(0.2) {
						req.Budget = int64(1 + r.Intn(8))
					}
				}
				_, _ = e.Offer(req) // refusals are part of the storm
			}
		}
		e.Tick()
		if after != nil {
			after(e)
		}
		// The consumer: outputs 3, 6, 9, … are read only one slot in
		// four, and then one frame at a time; the rest are drained.
		for j := range e.outs {
			if j%3 == 0 && j > 0 {
				if s%4 == 0 && len(e.outs[j]) > 0 {
					<-e.outs[j]
				}
				continue
			}
			for len(e.outs[j]) > 0 {
				<-e.outs[j]
			}
		}
	}
	return e
}

// histPin renders a histogram snapshot for a pin.
func histPin(s metrics.HistogramSnapshot) string {
	return fmt.Sprintf("%v+%d n=%d sum=%.0f", s.Counts, s.Overflow, s.Total, s.Sum)
}

// instrumentPin renders every instrument the arbiter publishes per slot.
func instrumentPin(e *Engine) string {
	m := e.Stats()
	var rules [sched.NumGrantRules]int64
	for k := range rules {
		rules[k] = m.GrantsByRule[k].Value()
	}
	s := fmt.Sprintf("depth %s | rules %v delivered %d masked %d wasted %d backlog %d",
		histPin(m.VOQDepth.Snapshot()), rules, m.Delivered.Value(), m.MaskedOutputs.Value(),
		m.WastedGrants.Value(), m.Backlog.Value())
	if ct := e.classes; ct != nil {
		for c := range ct.classes {
			s += fmt.Sprintf(" | class %d adm %d del %d viol %d queued %d lat %s", c,
				ct.admitted[c].Value(), ct.delivered[c].Value(), ct.violations[c].Value(),
				ct.queued[c].Value(), histPin(ct.latency[c].Snapshot()))
		}
	}
	return s
}

// TestInstrumentStormPins pins, per storm cell, the VOQ-depth histogram,
// the grant attribution, the delivery, masking, waste and backlog
// counters and every class's accounting and latency histogram after 2000
// slots. The constants were generated before the arbiter kept a depth
// census and summed its counters per slot, so they hold the published
// instruments to what per-frame updates and a per-slot rescan recorded.
func TestInstrumentStormPins(t *testing.T) {
	want := map[string]string{
		"cicq/hold/plain": "depth [49279 14813 14186 18773]+139513 n=236564 sum=2428401" +
			" | rules [0 21952 0 0] delivered 21952 masked 0 wasted 0 backlog 1316",
		"cicq/hold/classes": "depth [114746 30108 35191 32370]+23406 n=235821 sum=802576" +
			" | rules [0 22194 0 0] delivered 22194 masked 0 wasted 0 backlog 1151" +
			" | class 0 adm 6531 del 6363 viol 687 queued 155 lat [3363 596 603 584 480 316 213 66 28 36 52 26 0 0 0 0]+0 n=6363 sum=127020" +
			" | class 1 adm 6401 del 6210 viol 501 queued 178 lat [3141 572 641 601 463 354 213 87 39 26 39 34 0 0 0 0]+0 n=6210 sum=133609" +
			" | class 2 adm 6428 del 6083 viol 363 queued 327 lat [3172 566 572 504 420 267 214 144 118 61 27 18 0 0 0 0]+0 n=6083 sum=123895",
		"cicq/drop/plain": "depth [53475 17574 17638 27600]+107829 n=224116 sum=1966120" +
			" | rules [0 21893 0 0] delivered 21893 masked 0 wasted 0 backlog 1206",
		"cicq/drop/classes": "depth [124675 24888 32355 21406]+19738 n=223062 sum=683091" +
			" | rules [0 22113 0 0] delivered 22113 masked 0 wasted 0 backlog 1029" +
			" | class 0 adm 7084 del 6511 viol 696 queued 139 lat [3356 590 670 613 552 366 217 76 26 26 18 1 0 0 0 0]+0 n=6511 sum=66274" +
			" | class 1 adm 6950 del 6370 viol 451 queued 168 lat [3198 577 694 609 536 362 228 91 29 27 16 3 0 0 0 0]+0 n=6370 sum=71323" +
			" | class 2 adm 6985 del 6136 viol 396 queued 280 lat [3218 565 651 515 405 306 194 125 118 33 5 1 0 0 0 0]+0 n=6136 sum=76571",
		"voq/hold/plain": "depth [56045 16018 10047 181375]+0 n=263485 sum=1509668" +
			" | rules [0 15798 6147 0] delivered 21945 masked 115877 wasted 0 backlog 779",
		"voq/hold/classes": "depth [193870 41475 21847 9150]+0 n=266342 sum=403741" +
			" | rules [0 15938 6251 0] delivered 22189 masked 114324 wasted 0 backlog 965" +
			" | class 0 adm 6380 del 6280 viol 1211 queued 68 lat [2329 559 721 796 720 327 107 134 232 221 122 12 0 0 0 0]+0 n=6280 sum=268233" +
			" | class 1 adm 6199 del 6080 viol 1036 queued 89 lat [2219 481 743 773 757 300 127 104 138 252 159 27 0 0 0 0]+0 n=6080 sum=307045" +
			" | class 2 adm 6274 del 5650 viol 546 queued 607 lat [2236 460 725 811 667 304 111 50 52 52 58 124 0 0 0 0]+0 n=5650 sum=282954",
		"voq/drop/plain": "depth [58106 18709 16946 159135]+0 n=252896 sum=1354491" +
			" | rules [0 15891 5966 0] delivered 21857 masked 112901 wasted 0 backlog 774",
		"voq/drop/classes": "depth [191052 36181 19616 7567]+0 n=254416 sum=374178" +
			" | rules [0 16028 6068 0] delivered 22096 masked 110441 wasted 0 backlog 876" +
			" | class 0 adm 6907 del 6392 viol 1259 queued 117 lat [2408 566 705 800 720 318 146 185 281 200 62 1 0 0 0 0]+0 n=6392 sum=214605" +
			" | class 1 adm 6686 del 6049 viol 937 queued 162 lat [2233 512 754 795 731 303 125 105 157 206 122 6 0 0 0 0]+0 n=6049 sum=234399" +
			" | class 2 adm 6811 del 5645 viol 555 queued 403 lat [2234 514 732 817 690 269 113 94 62 46 40 34 0 0 0 0]+0 n=5645 sum=140380",
	}
	for _, c := range stormCells() {
		t.Run(c.String(), func(t *testing.T) {
			e := instrumentStorm(t, c, 2000, nil)
			if got := instrumentPin(e); got != want[c.String()] {
				t.Errorf("instruments\n got %q\nwant %q", got, want[c.String()])
			}
		})
	}
}

// TestVOQDepthCensusMatchesRescan: after every Tick of every storm cell,
// each input's depth-census row equals a rescan of its VOQ lengths
// bucketed by VOQDepth itself, and the census buckets every length as the
// histogram does, overflow included, at several caps.
func TestVOQDepthCensusMatchesRescan(t *testing.T) {
	for _, voqCap := range []int{1, 3, 8, 256} {
		e, err := New(Config{N: 2, Datapath: switchcore.DatapathCICQ, VOQCap: voqCap})
		if err != nil {
			t.Fatal(err)
		}
		for l := 1; l <= 4*voqCap+8; l++ {
			if got, want := e.depth.bucket(l), e.met.VOQDepth.Bucket(float64(l)); got != want {
				t.Fatalf("VOQCap %d: census bucket of length %d is %d, histogram's %d", voqCap, l, got, want)
			}
		}
		e.Close()
	}
	for _, c := range stormCells() {
		t.Run(c.String(), func(t *testing.T) {
			slot := 0
			instrumentStorm(t, c, 1000, func(e *Engine) {
				slot++
				want := make([]int64, e.depth.stride)
				for i := 0; i < e.n; i++ {
					clear(want)
					for j := 0; j < e.n; j++ {
						if l := e.dp.Len(i, j); l > 0 {
							want[e.met.VOQDepth.Bucket(float64(l))]++
						}
					}
					if got := e.depth.row(i); !reflect.DeepEqual(got, want) {
						t.Fatalf("slot %d input %d: census %v, rescan %v", slot, i, got, want)
					}
				}
			})
		})
	}
}

// TestAdmitTickAllocatesNothing: once queues reach working size, an
// admit+tick+drain slot allocates nothing on the voq, cicq and class
// engines.
func TestAdmitTickAllocatesNothing(t *testing.T) {
	const n = 16
	for _, spec := range []Spec{
		{N: n},
		{N: n, Datapath: switchcore.DatapathCICQ},
		{N: n, Classes: "rt:0:4:32,quick:1:2:128,bulk:2:1", Rank: pifo.RankDeadline},
	} {
		t.Run(fmt.Sprintf("%s/classes=%q", spec.Datapath, spec.Classes), func(t *testing.T) {
			cfg, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			shift := 0
			slot := func() {
				shift++
				for i := 0; i < n; i++ {
					req := Request{Src: i, Dst: (i + shift) % n, Seq: uint64(shift)}
					if cfg.Classes != nil {
						req.Classed, req.Class = true, (i+shift)%3
					}
					if _, err := e.Offer(req); err != nil {
						t.Fatal(err)
					}
				}
				e.Tick()
				for j := range e.outs {
					for len(e.outs[j]) > 0 {
						<-e.outs[j]
					}
				}
			}
			for k := 0; k < 4*n; k++ {
				slot()
			}
			if allocs := testing.AllocsPerRun(200, slot); allocs != 0 {
				t.Errorf("%v allocs per admit+tick, want 0", allocs)
			}
		})
	}
}
