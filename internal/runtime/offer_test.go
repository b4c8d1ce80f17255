package runtime_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/datapath"
	"repro/internal/flowtable"
	"repro/internal/metrics"
	"repro/internal/pifo"
	"repro/internal/rng"
	rt "repro/internal/runtime"
)

// TestOfferComposedFrame: a request that is both steered and classified
// is pinned to its flow's port and ranked in that port's PIFO — one
// frame, both tiers' ledgers.
func TestOfferComposedFrame(t *testing.T) {
	const n, flow = 4, 77
	e, err := rt.New(rt.Config{
		N: n, Scheduler: newScheduler(t, "lcf_central_rr", n),
		Flows: 16, Classes: testClassList(), Rank: pifo.RankStrict,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Bulk first, real-time second, on one (flow, output) pair: the PIFO
	// must reorder them, which a frame that skipped it could not be.
	var ports [2]int
	for k, class := range []int{2, 0} {
		ports[k], err = e.Offer(rt.Request{Src: -1, Dst: 3, Seq: uint64(k), Flow: flow, Steered: true, Class: class, Classed: true})
		if err != nil {
			t.Fatal(err)
		}
	}
	if sticky, _, ok := e.Flows().Lookup(flow); !ok || ports[0] != sticky || ports[1] != sticky {
		t.Fatalf("offered on ports %v, flow resident = %t at %d", ports, ok, sticky)
	}
	if q := e.Snapshot().Classes.Classes; q[0].Queued != 1 || q[2].Queued != 1 {
		t.Fatalf("PIFO residency after two composed frames: %+v", q)
	}
	for k, wantClass := range []int{0, 2} {
		e.Tick()
		select {
		case f := <-e.Output(3):
			if f.Class != wantClass || f.Src != ports[0] || f.Seq != uint64(1-k) {
				t.Fatalf("delivery %d = %+v, want class %d from port %d", k, f, wantClass, ports[0])
			}
		default:
			t.Fatalf("delivery %d: nothing crossed", k)
		}
	}
	snap := e.Snapshot()
	if c := snap.Classes.Classes; c[0].Admitted != 1 || c[2].Admitted != 1 || c[0].Delivered != 1 || c[2].Delivered != 1 {
		t.Fatalf("class ledger: %+v", c)
	}
	if snap.Flows.Steered != 2 || snap.Flows.Inserted != 1 || snap.Admitted != 2 {
		t.Fatalf("flow ledger: %+v, engine admitted %d", snap.Flows, snap.Admitted)
	}
}

// TestAdmissionStageOrder pins which refusal wins when several apply, per
// door: tier off > bad port > bad class > closed > table full > port
// down > backpressure. For every door and every refusal it can meet, the
// engine and the request are built so that this refusal and every
// lower-ranked one apply at once; the error must be this one, and only
// its counter may move. The precedence is Offer's stage order; Admit and
// AdmitClass compose the same stages and must agree.
func TestAdmissionStageOrder(t *testing.T) {
	const n, dst = 2, 1
	const (
		tierOff = iota
		badPort
		badClass
		closed
		tableFull
		portDown
		backpressure
		numStages
	)
	stages := [numStages]struct {
		name string
		err  []error // any of
	}{
		{"tier off", []error{rt.ErrNoClasses, rt.ErrNoFlowTable}},
		{"bad port", []error{rt.ErrBadPort}},
		{"bad class", []error{rt.ErrBadClass}},
		{"closed", []error{rt.ErrClosed}},
		{"table full", []error{flowtable.ErrTableFull}},
		{"port down", []error{rt.ErrPortDown}},
		{"backpressure", []error{rt.ErrBackpressure}},
	}
	type door struct {
		name             string
		steered, classed bool
		legacy           func(e *rt.Engine, r rt.Request) error // nil: Offer
	}
	doors := []door{
		{name: "Offer/plain"},
		{name: "Offer/steered", steered: true},
		{name: "Offer/classified", classed: true},
		{name: "Offer/steered+classified", steered: true, classed: true},
		{name: "Admit", legacy: func(e *rt.Engine, r rt.Request) error {
			return e.Admit(r.Src, r.Dst, r.Seq, r.Stamp)
		}},
		{name: "AdmitClass", classed: true, legacy: func(e *rt.Engine, r rt.Request) error {
			return e.AdmitClass(r.Src, r.Dst, r.Class, r.Seq, r.Stamp, r.Budget)
		}},
	}
	for _, d := range doors {
		meets := func(stage int) bool {
			switch stage {
			case tierOff:
				return d.steered || d.classed
			case badClass:
				return d.classed
			case tableFull:
				return d.steered
			}
			return true
		}
		for top := 0; top < numStages; top++ {
			if !meets(top) {
				continue
			}
			t.Run(fmt.Sprintf("%s/%s", d.name, stages[top].name), func(t *testing.T) {
				// has: the refusal is built into this run. With the tiers off
				// there is no table to fill and no PIFO to fill.
				has := func(stage int) bool {
					return stage >= top && meets(stage) && !(top == tierOff && (stage == tableFull || stage == backpressure))
				}
				cfg := rt.Config{N: n, Scheduler: newScheduler(t, "lcf_central_rr", n), VOQCap: 1}
				if !has(tierOff) {
					cfg.Flows, cfg.FlowShards, cfg.Classes, cfg.ClassQCap = 2, 1, testClassList(), 1
				}
				e, err := rt.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				if has(backpressure) {
					// Whichever input the request lands on, its queue toward
					// dst — the PIFO if it is classified — is full.
					for i := 0; i < n; i++ {
						if d.classed {
							err = e.AdmitClass(i, dst, 0, 0, 0, 0)
						} else {
							err = e.Admit(i, dst, 0, 0)
						}
						if err != nil {
							t.Fatal(err)
						}
					}
				}
				if has(tableFull) {
					for id := uint64(1000); ; id++ {
						_, err := offerFlow(e, id, 0, 0)
						if errors.Is(err, flowtable.ErrTableFull) {
							break
						}
						if (err != nil && !errors.Is(err, rt.ErrBackpressure)) || id > 2000 {
							t.Fatalf("filling the flow table: flow %d: %v", id, err)
						}
					}
				}
				if has(portDown) {
					if err := e.FailOutput(dst); err != nil {
						t.Fatal(err)
					}
				}
				if has(closed) {
					e.Close()
				}
				req := rt.Request{Src: 0, Dst: dst, Seq: 1, Flow: 7, Steered: d.steered, Class: 1, Classed: d.classed}
				if has(badClass) {
					req.Class = len(testClassList())
				}
				if has(badPort) {
					req.Dst = n
				}

				st := e.Stats()
				var flowsBefore flowtable.Stats
				if e.Flows() != nil {
					flowsBefore = e.Flows().Stats()
				}
				before := [...]int64{st.RejectedPortDown.Value(), st.Backpressured.Value(), st.Admitted.Value()}
				port := -2
				if d.legacy != nil {
					err = d.legacy(e, req)
				} else {
					port, err = e.Offer(req)
				}

				won := false
				for _, want := range stages[top].err {
					won = won || errors.Is(err, want)
				}
				if !won {
					t.Fatalf("err = %v, want %v", err, stages[top].err)
				}
				if d.legacy == nil {
					// The port is known once the request is validated — or, for
					// a steered one, once the steer stage has resolved it.
					known := top > badClass && (!d.steered || top > tableFull)
					if known != (port >= 0) || (known && !d.steered && port != req.Src) {
						t.Errorf("port = %d for a request refused at stage %q (src %d, steered %t)", port, stages[top].name, req.Src, d.steered)
					}
				}
				moved := [...]int64{st.RejectedPortDown.Value() - before[0], st.Backpressured.Value() - before[1], st.Admitted.Value() - before[2]}
				if want := [...]int64{b2i(top == portDown), b2i(top == backpressure), 0}; moved != want {
					t.Errorf("RejectedPortDown, Backpressured, Admitted moved by %v, want %v", moved, want)
				}
				if e.Flows() != nil {
					want := flowsBefore
					switch {
					case !d.steered || top < tableFull: // never reached the steer stage
					case top == tableFull:
						want.Rejected++
					default: // steered, inserted as a new flow, refused later
						want.Steered, want.Inserted, want.Resident = want.Steered+1, want.Inserted+1, want.Resident+1
					}
					if got := e.Flows().Stats(); got != want {
						t.Errorf("flow table moved %+v → %+v, want %+v", flowsBefore, got, want)
					}
				}
			})
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// TestOfferMatchesLegacyDoors drives twin lockstep engines through one
// seeded trace of plain and classified arrivals with link flaps — one
// through Admit and AdmitClass, the other through Offer with the matching
// request shapes — and requires the same frames out of every output in
// the same slots and the same Snapshot at the end: the doors are
// compositions of the same stages, not look-alikes.
func TestOfferMatchesLegacyDoors(t *testing.T) {
	for _, dp := range datapath.Names() {
		for _, fp := range []rt.FaultPolicy{rt.HoldStranded, rt.DropStranded} {
			t.Run(fmt.Sprintf("%s/%s", dp, fp), func(t *testing.T) {
				const n, slots = 6, 5000
				var twins [2]*rt.Engine
				for k := range twins {
					var err error
					twins[k], err = rt.New(rt.Config{
						N: n, Scheduler: newScheduler(t, "lcf_central_rr", n), Datapath: dp,
						VOQCap: 8, OutCap: 4, FaultPolicy: fp,
						Classes: testClassList(), Rank: pifo.RankWFQ, ClassQCap: 8,
					})
					if err != nil {
						t.Fatal(err)
					}
				}
				legacy, offer := twins[0], twins[1]
				r := rng.NewPCG32(0x0FFE2, uint64(len(dp))<<8|uint64(fp))
				var seq uint64
				for slot := 0; slot < slots; slot++ {
					// Move one link in one direction every few slots, the same
					// one on both engines.
					if r.Intn(16) == 0 {
						p, in, down := r.Intn(n), r.Bool(0.5), r.Bool(0.1)
						set := [...]func(*rt.Engine, int) error{
							(*rt.Engine).RecoverOutput, (*rt.Engine).FailOutput,
							(*rt.Engine).RecoverInput, (*rt.Engine).FailInput,
						}[2*b2i(in)+b2i(down)]
						for _, e := range twins {
							if err := set(e, p); err != nil {
								t.Fatal(err)
							}
						}
					}
					for i := 0; i < n; i++ {
						if !r.Bool(0.85) {
							continue
						}
						seq++
						req := rt.Request{Src: i, Dst: r.Intn(n), Seq: seq, Stamp: seq ^ 0x5A}
						var lerr error
						if r.Bool(0.6) {
							req.Class, req.Classed, req.Budget = r.Intn(3), true, int64(r.Intn(3))
							lerr = legacy.AdmitClass(req.Src, req.Dst, req.Class, req.Seq, req.Stamp, req.Budget)
						} else {
							lerr = legacy.Admit(req.Src, req.Dst, req.Seq, req.Stamp)
						}
						port, oerr := offer.Offer(req)
						if fmt.Sprint(lerr) != fmt.Sprint(oerr) || port != i {
							t.Fatalf("slot %d: %+v: legacy door says %v, Offer says port %d, %v", slot, req, lerr, port, oerr)
						}
					}
					for _, e := range twins {
						e.Tick()
					}
					// A slow consumer on output 0 keeps the output mask in play.
					for j := 0; j < n; j++ {
						if j == 0 && slot%8 != 0 {
							continue
						}
						for len(legacy.Output(j)) > 0 || len(offer.Output(j)) > 0 {
							var a, b rt.Frame
							select {
							case a = <-legacy.Output(j):
							default:
								t.Fatalf("slot %d output %d: Offer's engine delivered a frame the legacy one did not", slot, j)
							}
							select {
							case b = <-offer.Output(j):
							default:
								t.Fatalf("slot %d output %d: the legacy engine delivered %+v, Offer's nothing", slot, j, a)
							}
							if a != b {
								t.Fatalf("slot %d output %d: legacy %+v, Offer %+v", slot, j, a, b)
							}
						}
					}
				}
				var snaps [2]rt.Snapshot
				for k, e := range twins {
					snaps[k] = e.Snapshot()
					// Wall-clock time per tick is the one thing twins do not share.
					snaps[k].SlotLatencyNs = metrics.HistogramSnapshot{}
					snaps[k].SlotLatencyP50, snaps[k].SlotLatencyP90, snaps[k].SlotLatencyP99 = 0, 0, 0
					e.Close()
				}
				if !reflect.DeepEqual(snaps[0], snaps[1]) {
					t.Fatalf("snapshots differ:\nlegacy %+v\nOffer  %+v", snaps[0], snaps[1])
				}
				if snaps[0].Admitted == 0 || snaps[0].Backpressured == 0 || snaps[0].FaultRejected == 0 || snaps[0].Classes.Classes[0].Admitted == 0 {
					t.Fatalf("the trace did not exercise the doors: %+v", snaps[0])
				}
			})
		}
	}
}
