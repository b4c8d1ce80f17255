// Package closfabric is the live three-stage Clos fabric: N independent
// internal/runtime engines — one per ingress, middle and egress switch of
// a C(m,k,r) Clos network — wired together with inter-switch links that
// carry the engines' own frames, all driven in lockstep on one shared
// fabric clock.
//
// Where internal/clos computes offline rearrangements of a single
// matching, this package actually *runs* the datacenter-shaped topology:
// every switch is a full LCF (or any registered scheduler) engine with its
// own VOQs, arbiter and fault machinery, and frames hop ingress → middle →
// egress exactly as cells would cross a folded-Clos fabric.
//
// # Topology and routing
//
// A C(m,k,r) fabric has r ingress switches of k external inputs, m middle
// switches of r×r, and r egress switches of k external outputs; n = k·r
// external ports. External port p maps to ingress switch p/k, local input
// p%k (and symmetrically on the egress side). The only routing freedom is
// the middle-stage choice, made once per frame at admission:
//
//   - SelectRoundRobin cycles a per-ingress pointer over the live middles.
//   - SelectLeastBacklogged picks the live middle with the smallest
//     backlog along its path (the middle engine's VOQ backlog gauge plus
//     frames in flight on the ingress→middle links toward it).
//
// Round-robin and least-backlogged routing both spread one (src, dst)
// pair's frames over several middles, whose queues differ, so a pair's
// frames can leave the fabric out of admission order. The fabric counts
// this rather than preventing it: every admitted frame takes a per-pair
// ticket, and a delivery whose ticket is below one already delivered for
// the same pair counts in Stats.Reordered.
//
// # Links and backpressure
//
// Each inter-switch link is a one-frame hold register on top of the
// upstream engine's bounded output channel. Per fabric slot a link pops at
// most one runtime.Frame into its register and offers it to the downstream
// engine; the frame's Seq is its slab index, and the slab holds the route
// (external destination, chosen middle). A full downstream VOQ NACKs the
// link (ErrBackpressure): the frame stays in the hold register and retries
// next slot, the stalled register stops the link popping, the upstream
// output channel fills, the upstream engine masks that output, frames pile
// into its VOQs, and eventually the external Admit sees ErrBackpressure —
// backpressure propagates across the whole fabric without dropping a
// frame.
//
// # Conservation
//
// Every frame admitted into the fabric allocates one slab entry holding
// its end-to-end identity (external src/dst, chosen middle, caller seq and
// stamp, admission slot); the entry is freed exactly once, on external
// delivery or on a counted drop. After every slot the fabric asserts, from
// two independent sets of books, that
//
//	injected == delivered + dropped + resident
//
// where resident is recomputed from engine backlog gauges, output-channel
// occupancy and link hold registers — and must also equal the number of
// live slab entries. A violation fails Tick with a full breakdown.
//
// # Faults
//
// FailMiddle kills an entire middle-stage switch: its ports all go down
// and every ingress masks the output feeding it. New admissions reroute
// around it (both selection policies skip dead middles); frames already
// inside it follow the engines' FaultPolicy — held in place until
// RecoverMiddle, or flushed and counted (the runtime.Config.OnDropped hook
// releases their slab entries, keeping conservation exact). Frames already
// in the dead switch's output channels have left the switch and still
// deliver.
package closfabric

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/clos"
	"repro/internal/conserve"
	"repro/internal/metrics"
	"repro/internal/obs"
	rt "repro/internal/runtime"
	"repro/internal/switchcore"
)

// Fabric-level admission errors. ErrBackpressure and ErrBadPort are the
// runtime package's own sentinels, re-exported so callers match one set.
var (
	ErrBackpressure = rt.ErrBackpressure
	ErrBadPort      = rt.ErrBadPort
	// ErrClosed reports admission after Close.
	ErrClosed = errors.New("closfabric: fabric closed")
	// ErrNoMiddle reports that every middle-stage switch is down: there is
	// no path from any ingress to any egress.
	ErrNoMiddle = errors.New("closfabric: no live middle-stage switch")
	// ErrNotComposed reports an engine setting the fabric does not
	// compose: its engines are plain VOQ switches it sizes itself.
	ErrNotComposed = errors.New("closfabric: engine setting the fabric does not compose")
)

// MiddleSelect chooses how admission routes frames over the middle stage.
type MiddleSelect int

const (
	// SelectRoundRobin cycles each ingress switch's pointer over the live
	// middle switches — oblivious load balancing.
	SelectRoundRobin MiddleSelect = iota
	// SelectLeastBacklogged sends each frame to the live middle switch
	// with the smallest backlog along its path, read from the engines' VOQ
	// backlog gauges (ties break to the lowest index).
	SelectLeastBacklogged
)

func (s MiddleSelect) String() string {
	switch s {
	case SelectRoundRobin:
		return "rr"
	case SelectLeastBacklogged:
		return "backlog"
	default:
		return fmt.Sprintf("MiddleSelect(%d)", int(s))
	}
}

// ParseMiddleSelect is String's inverse: it accepts "rr" and "backlog",
// the one spelling of each policy.
func ParseMiddleSelect(s string) (MiddleSelect, error) {
	switch s {
	case "rr":
		return SelectRoundRobin, nil
	case "backlog":
		return SelectLeastBacklogged, nil
	default:
		return 0, fmt.Errorf("closfabric: unknown middle selection %q (want rr or backlog)", s)
	}
}

// Delivery is one frame leaving the fabric at its external egress port,
// handed to Config.OnDeliver with its end-to-end identity restored from
// the slab.
type Delivery struct {
	Src, Dst   int    // external ports
	Mid        int    // middle switch the frame crossed
	Seq, Stamp uint64 // caller values from Admit, echoed
	// Admitted and DeliveredSlot are fabric slots: when the frame entered
	// its ingress VOQ and when it left the egress engine.
	Admitted, DeliveredSlot int64
}

// Config parameterizes a Fabric.
type Config struct {
	// M, K, R are the Clos dimensions: M middle switches, K external
	// ports per ingress/egress switch, R ingress (= egress) switches.
	// The topology must at least be rearrangeable (clos.Rearrangeable).
	M, K, R int

	// Engine is every switch engine's spec. The fabric sets each
	// engine's N and derives its scheduler seed from Engine.Seed via
	// SchedulerSeed; the rest applies to every engine as written. The
	// fabric composes plain VOQ engines, so New rejects a spec that sets
	// N, the cicq datapath, Flows or Classes (ErrNotComposed). Under
	// FaultPolicy DropStranded the fabric counts the engines' drops and
	// frees their slab entries via the OnDropped hook.
	Engine rt.Spec

	// Select picks the middle-stage routing policy.
	Select MiddleSelect

	// OnDeliver, when non-nil, receives every frame leaving the fabric.
	// It runs on the Tick caller's goroutine.
	OnDeliver func(Delivery)

	// OnStageSlot, when non-nil, receives every engine's per-slot event
	// tagged with its stage and index — the fabric-level mirror of
	// runtime.Config.OnSlot.
	OnStageSlot func(stage uint8, idx int, ev rt.SlotEvent)

	// TracerFor, when non-nil, supplies a per-engine obs tracer for the
	// engine at (stage, index) with the given port count, letting a
	// daemon tag trace events by position in the fabric. Return nil for
	// engines that should not trace.
	TracerFor func(stage uint8, idx, ports int) *obs.Tracer
}

func (c *Config) normalize() error {
	switch e := c.Engine; {
	case e.N != 0:
		return fmt.Errorf("%w: N %d (the fabric sizes each engine)", ErrNotComposed, e.N)
	case e.Datapath == switchcore.DatapathCICQ:
		return fmt.Errorf("%w: datapath %s", ErrNotComposed, e.Datapath)
	case e.Flows != 0:
		return fmt.Errorf("%w: Flows %d", ErrNotComposed, e.Flows)
	case e.Classes != "":
		return fmt.Errorf("%w: Classes %q", ErrNotComposed, e.Classes)
	}
	if c.Select != SelectRoundRobin && c.Select != SelectLeastBacklogged {
		return fmt.Errorf("closfabric: unknown middle selection %d", int(c.Select))
	}
	return nil
}

// Fabric pipeline stages, in traversal order. The values are load-bearing:
// SchedulerSeed mixes the stage into every engine's seed.
const (
	StageIngress uint8 = 0
	StageMiddle  uint8 = 1
	StageEgress  uint8 = 2
)

var stageNames = [...]string{StageIngress: "ingress", StageMiddle: "middle", StageEgress: "egress"}

// StageName spells a pipeline stage as metric labels and trace lines do:
// "ingress", "middle" or "egress".
func StageName(stage uint8) string { return stageNames[stage] }

// SchedulerSeed derives the deterministic per-engine scheduler seed from
// the fabric's base seed, the engine's stage and its index within the
// stage. Exported so lockstep tests can build a reference engine with the
// exact seed a fabric engine received.
func SchedulerSeed(base uint64, stage uint8, idx int) uint64 {
	return base ^ (uint64(stage)+1)*0x9E3779B97F4A7C15 ^ (uint64(idx)+1)*0xBF58476D1CE4E5B9
}

// meta is one slab entry: the end-to-end identity of a frame in flight.
// Engines only see the slab index (as their Frame.Seq); everything the
// egress side needs to reconstruct the delivery lives here.
type meta struct {
	src, dst int
	mid      int
	seq      uint64
	stamp    uint64
	ticket   uint64 // the frame's admission order within its (src, dst) pair
	admitted int64
	inUse    bool
}

// hold is a one-frame link register: the frame popped from the upstream
// output channel, waiting for the downstream switch to accept it.
type hold struct {
	full bool
	fr   rt.Frame
}

// Stats holds the fabric-level counters, safe to scrape concurrently with
// a ticking fabric (per-slot bookkeeping is single-goroutine; the counters
// themselves are atomics).
type Stats struct {
	Injected      metrics.Counter        // external Admit successes
	Delivered     metrics.Counter        // frames leaving an external egress port
	Rejected      metrics.Counter        // Admit refusals: bad port, dead path (ErrPortDown, ErrNoMiddle)
	Backpressured metrics.Counter        // Admit refusals: full ingress VOQ
	Dropped       metrics.Counter        // frames dropped by fault policy, fabric-wide (engines + links)
	LinkNacks     metrics.Counter        // inter-switch link admission refusals (downstream VOQ full or switch down)
	Reordered     metrics.Counter        // deliveries that left after a later-admitted frame of the same (src, dst) pair
	Routed        []metrics.Counter      // per middle switch: frames routed through it at admission
	MiddleLive    []metrics.Gauge        // per middle switch: 1 up, 0 failed
	Latency       *metrics.LiveHistogram // end-to-end delivery latency in fabric slots
}

// Fabric is one live Clos fabric. All mutating methods (Admit, Tick,
// FailMiddle, RecoverMiddle, Close) must run on a single goroutine — the
// same lockstep contract as a non-Started runtime.Engine. Read-only
// accessors and the registered metrics are safe from any goroutine.
type Fabric struct {
	cfg     Config
	net     *clos.Network
	m, k, r int
	n       int // external ports = k·r
	sq      int // ingress/egress engine size = max(k, m)

	ingress []*rt.Engine // r engines of size sq: inputs 0..k-1 external, outputs 0..m-1 to middles
	middle  []*rt.Engine // m engines of size r: input g from ingress g, output ge to egress ge
	egress  []*rt.Engine // r engines of size sq: inputs 0..m-1 from middles, outputs 0..k-1 external

	midLive []bool
	live    int   // live middle count
	rrNext  []int // per-ingress round-robin middle pointer

	imHold [][]hold // [r][m] ingress→middle links
	meHold [][]hold // [m][r] middle→egress links

	slab []meta
	free []int

	// Per (src, dst) pair, indexed src·n + dst: the next admission ticket,
	// and one past the highest ticket delivered so far.
	nextTicket []uint64
	doneTicket []uint64

	slot   atomic.Int64 // completed fabric slots; atomic only for scrapers
	closed bool

	met Stats
}

// New builds a fabric. The Clos dimensions are validated through
// clos.New, so only (at least) rearrangeable topologies are accepted.
func New(cfg Config) (*Fabric, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	net, err := clos.New(cfg.M, cfg.K, cfg.R)
	if err != nil {
		return nil, err
	}
	m, k, r := net.Dims()
	f := &Fabric{
		cfg: cfg,
		net: net,
		m:   m, k: k, r: r,
		n:       k * r,
		sq:      max(k, m),
		ingress: make([]*rt.Engine, r),
		middle:  make([]*rt.Engine, m),
		egress:  make([]*rt.Engine, r),
		midLive: make([]bool, m),
		live:    m,
		rrNext:  make([]int, r),
		imHold:  make([][]hold, r),
		meHold:  make([][]hold, m),

		nextTicket: make([]uint64, k*r*k*r),
		doneTicket: make([]uint64, k*r*k*r),
	}
	for g := range f.imHold {
		f.imHold[g] = make([]hold, m)
	}
	for c := range f.meHold {
		f.meHold[c] = make([]hold, r)
	}
	for c := range f.midLive {
		f.midLive[c] = true
	}
	for g := 0; g < r; g++ {
		if f.ingress[g], err = f.newEngine(StageIngress, g, f.sq); err != nil {
			return nil, err
		}
		if f.egress[g], err = f.newEngine(StageEgress, g, f.sq); err != nil {
			return nil, err
		}
	}
	for c := 0; c < m; c++ {
		if f.middle[c], err = f.newEngine(StageMiddle, c, r); err != nil {
			return nil, err
		}
	}
	f.met.Routed = make([]metrics.Counter, m)
	f.met.MiddleLive = make([]metrics.Gauge, m)
	for c := range f.met.MiddleLive {
		f.met.MiddleLive[c].Set(1)
	}
	// Latency buckets 1,2,4,… slots: three hops minimum, long tails under
	// backpressure or held faults.
	f.met.Latency = metrics.NewLiveHistogram(metrics.ExponentialBounds(1, 2, 16))
	return f, nil
}

func (f *Fabric) newEngine(stage uint8, idx, size int) (*rt.Engine, error) {
	spec := f.cfg.Engine
	spec.N, spec.Seed = size, SchedulerSeed(spec.Seed, stage, idx)
	ecfg, err := spec.Build()
	if err != nil {
		return nil, fmt.Errorf("closfabric: stage %d switch %d: %w", stage, idx, err)
	}
	ecfg.OnDropped = f.onEngineDrop
	if f.cfg.TracerFor != nil {
		ecfg.Tracer = f.cfg.TracerFor(stage, idx, size)
	}
	if cb := f.cfg.OnStageSlot; cb != nil {
		st, ix := stage, idx
		ecfg.OnSlot = func(ev rt.SlotEvent) { cb(st, ix, ev) }
	}
	e, err := rt.New(ecfg)
	if err != nil {
		return nil, fmt.Errorf("closfabric: stage %d switch %d: %w", stage, idx, err)
	}
	return e, nil
}

// onEngineDrop is the runtime.Config.OnDropped hook shared by every
// engine: a frame an engine flushed from a stranded VOQ is gone from the
// fabric, so its slab entry is released and the fabric-wide drop counted.
// Runs on the Tick goroutine (engines are lockstep).
func (f *Fabric) onEngineDrop(fr rt.Frame) {
	f.freeSlab(int(fr.Seq))
	f.met.Dropped.Inc()
}

// Dims returns the Clos dimensions (m, k, r).
func (f *Fabric) Dims() (m, k, r int) { return f.m, f.k, f.r }

// N returns the external port count k·r.
func (f *Fabric) N() int { return f.n }

// Slot returns the number of completed fabric slots.
func (f *Fabric) Slot() int64 { return f.slot.Load() }

// Stats returns the fabric-level counters for scraping.
func (f *Fabric) Stats() *Stats { return &f.met }

// Engine returns the engine at (stage, idx) — the per-switch view for
// metrics registration and tests. It panics on an out-of-range position.
func (f *Fabric) Engine(stage uint8, idx int) *rt.Engine {
	switch stage {
	case StageIngress:
		return f.ingress[idx]
	case StageMiddle:
		return f.middle[idx]
	case StageEgress:
		return f.egress[idx]
	}
	panic(fmt.Sprintf("closfabric: stage %d out of range", stage))
}

// MiddleLive reports whether middle switch c is up.
func (f *Fabric) MiddleLive(c int) bool { return f.midLive[c] }

// Resident returns the number of frames currently inside the fabric
// (live slab entries).
func (f *Fabric) Resident() int64 { return int64(len(f.slab) - len(f.free)) }

func (f *Fabric) allocSlab(mt meta) int {
	mt.inUse = true
	if ln := len(f.free); ln > 0 {
		idx := f.free[ln-1]
		f.free = f.free[:ln-1]
		f.slab[idx] = mt
		return idx
	}
	f.slab = append(f.slab, mt)
	return len(f.slab) - 1
}

func (f *Fabric) freeSlab(idx int) {
	if idx < 0 || idx >= len(f.slab) || !f.slab[idx].inUse {
		panic(fmt.Sprintf("closfabric: double free or bad slab index %d", idx))
	}
	f.slab[idx].inUse = false
	f.free = append(f.free, idx)
}

// pickMiddle chooses the middle switch for a frame admitted at ingress
// switch gi, honoring the configured selection policy over live middles.
func (f *Fabric) pickMiddle(gi int) (int, error) {
	if f.live == 0 {
		return 0, ErrNoMiddle
	}
	switch f.cfg.Select {
	case SelectLeastBacklogged:
		best, bestLoad := -1, int64(0)
		for c := 0; c < f.m; c++ {
			if !f.midLive[c] {
				continue
			}
			load := f.middle[c].Stats().Backlog.Value()
			// In-flight frames on the ingress→middle links toward c are
			// backlog the gauge cannot see yet.
			for g := 0; g < f.r; g++ {
				load += int64(len(f.ingress[g].Output(c)))
				if f.imHold[g][c].full {
					load++
				}
			}
			if best < 0 || load < bestLoad {
				best, bestLoad = c, load
			}
		}
		return best, nil
	default: // SelectRoundRobin
		for off := 0; off < f.m; off++ {
			c := (f.rrNext[gi] + off) % f.m
			if f.midLive[c] {
				f.rrNext[gi] = (c + 1) % f.m
				return c, nil
			}
		}
		return 0, ErrNoMiddle
	}
}

// Admit offers a frame at external input port src destined to external
// output port dst. Seq and stamp are opaque caller values echoed on
// delivery. It returns nil on acceptance, ErrBackpressure when the path's
// ingress VOQ is full, ErrNoMiddle when every middle switch is down,
// ErrClosed after Close and ErrBadPort for out-of-range ports. Lockstep:
// call only from the Tick goroutine.
func (f *Fabric) Admit(src, dst int, seq, stamp uint64) error {
	if src < 0 || src >= f.n || dst < 0 || dst >= f.n {
		return fmt.Errorf("%w: src %d dst %d (n=%d)", ErrBadPort, src, dst, f.n)
	}
	if f.closed {
		return ErrClosed
	}
	gi, li := src/f.k, src%f.k
	c, err := f.pickMiddle(gi)
	if err != nil {
		f.met.Rejected.Inc()
		return err
	}
	pair := src*f.n + dst
	idx := f.allocSlab(meta{src: src, dst: dst, mid: c, seq: seq, stamp: stamp, ticket: f.nextTicket[pair], admitted: f.slot.Load()})
	if err := f.ingress[gi].Admit(li, c, uint64(idx), stamp); err != nil {
		f.freeSlab(idx)
		if errors.Is(err, rt.ErrBackpressure) {
			f.met.Backpressured.Inc()
		} else {
			f.met.Rejected.Inc()
		}
		return err
	}
	f.nextTicket[pair]++
	f.met.Injected.Inc()
	f.met.Routed[c].Inc()
	return nil
}

// popFrame non-blockingly takes one frame from an engine output channel.
func popFrame(ch <-chan rt.Frame) (rt.Frame, bool) {
	select {
	case fr := <-ch:
		return fr, true
	default:
		return rt.Frame{}, false
	}
}

// moveLink advances one inter-switch link by at most one frame: an empty
// hold register takes the next frame from the upstream output channel up,
// then the held frame is offered downstream through admit, which receives
// the frame's external destination from the slab. A downstream NACK
// (ErrBackpressure, ErrPortDown) keeps the frame held for a retry next
// slot, unless DropStranded says frames do not wait for a dead switch.
// A frame whose Seq names no live slab entry has escaped the fabric's
// books and is returned as an error.
func (f *Fabric) moveLink(h *hold, up <-chan rt.Frame, admit func(fr rt.Frame, dst int) error) error {
	if !h.full {
		fr, ok := popFrame(up)
		if !ok {
			return nil
		}
		if idx := int(fr.Seq); idx < 0 || idx >= len(f.slab) || !f.slab[idx].inUse {
			return fmt.Errorf("closfabric: frame with dead slab index %d on a link", idx)
		}
		h.fr, h.full = fr, true
	}
	err := admit(h.fr, f.slab[h.fr.Seq].dst)
	switch {
	case err == nil:
		h.full = false
	case errors.Is(err, rt.ErrBackpressure), errors.Is(err, rt.ErrPortDown):
		f.met.LinkNacks.Inc()
		if errors.Is(err, rt.ErrPortDown) && f.cfg.Engine.FaultPolicy == rt.DropStranded {
			// The link drops the frame like the engines drop their
			// stranded VOQs.
			f.freeSlab(int(h.fr.Seq))
			f.met.Dropped.Inc()
			h.full = false
		}
	default:
		// ErrClosed/ErrBadPort here mean fabric wiring is broken; surface
		// loudly rather than leak the frame.
		panic(fmt.Sprintf("closfabric: link admit: %v", err))
	}
	return nil
}

// collectDeliveries drains every external egress output completely,
// restoring each frame's end-to-end identity from the slab, releasing its
// entry and counting it in Reordered if its pair has already delivered a
// later ticket.
func (f *Fabric) collectDeliveries() {
	for ge := 0; ge < f.r; ge++ {
		for lo := 0; lo < f.k; lo++ {
			for {
				fr, ok := popFrame(f.egress[ge].Output(lo))
				if !ok {
					break
				}
				idx := int(fr.Seq)
				mt := f.slab[idx] // freeSlab panics below if idx is dead
				f.freeSlab(idx)
				f.met.Delivered.Inc()
				if pair := mt.src*f.n + mt.dst; mt.ticket < f.doneTicket[pair] {
					f.met.Reordered.Inc()
				} else {
					f.doneTicket[pair] = mt.ticket + 1
				}
				f.met.Latency.Observe(float64(f.slot.Load() - mt.admitted + 1))
				if f.cfg.OnDeliver != nil {
					f.cfg.OnDeliver(Delivery{
						Src: mt.src, Dst: mt.dst, Mid: mt.mid,
						Seq: mt.seq, Stamp: mt.stamp,
						Admitted: mt.admitted, DeliveredSlot: f.slot.Load(),
					})
				}
			}
		}
	}
}

// Tick advances the whole fabric by one slot: move frames across the
// middle→egress and ingress→middle links, tick every switch engine, and
// collect external deliveries. Admissions made before Tick are visible to
// this slot's ingress schedule — the same convention as runtime.Engine.
// The slot ends with the fabric-wide conservation audit; a violation (or
// a link frame with no slab entry) returns an error and the fabric should
// be considered corrupt.
func (f *Fabric) Tick() error {
	for c := 0; c < f.m; c++ {
		for ge := 0; ge < f.r; ge++ {
			if err := f.moveLink(&f.meHold[c][ge], f.middle[c].Output(ge), func(fr rt.Frame, dst int) error {
				return f.egress[ge].Admit(c, dst%f.k, fr.Seq, fr.Stamp)
			}); err != nil {
				return err
			}
		}
	}
	for g := 0; g < f.r; g++ {
		for c := 0; c < f.m; c++ {
			if err := f.moveLink(&f.imHold[g][c], f.ingress[g].Output(c), func(fr rt.Frame, dst int) error {
				return f.middle[c].Admit(g, dst/f.k, fr.Seq, fr.Stamp)
			}); err != nil {
				return err
			}
		}
	}
	for _, e := range f.ingress {
		e.Tick()
	}
	for _, e := range f.middle {
		e.Tick()
	}
	for _, e := range f.egress {
		e.Tick()
	}
	f.collectDeliveries()
	f.slot.Add(1)
	return f.checkConservation()
}

// checkConservation audits injected == delivered + dropped + resident,
// with resident recomputed from the engines' backlog gauges, the output
// channels and the link hold registers — books the slab does not keep.
// The slab population must independently agree.
func (f *Fabric) checkConservation() error {
	var backlog, inChannels, inHolds int64
	for g := 0; g < f.r; g++ {
		backlog += f.ingress[g].Stats().Backlog.Value()
		backlog += f.egress[g].Stats().Backlog.Value()
		for c := 0; c < f.m; c++ {
			inChannels += int64(len(f.ingress[g].Output(c)))
		}
		for lo := 0; lo < f.k; lo++ {
			inChannels += int64(len(f.egress[g].Output(lo)))
		}
	}
	for c := 0; c < f.m; c++ {
		backlog += f.middle[c].Stats().Backlog.Value()
		for ge := 0; ge < f.r; ge++ {
			inChannels += int64(len(f.middle[c].Output(ge)))
			if f.meHold[c][ge].full {
				inHolds++
			}
		}
	}
	for g := 0; g < f.r; g++ {
		for c := 0; c < f.m; c++ {
			if f.imHold[g][c].full {
				inHolds++
			}
		}
	}
	resident := backlog + inChannels + inHolds
	terms := conserve.Terms{
		Scope:     "fabric",
		Slot:      f.slot.Load(),
		Injected:  f.met.Injected.Value(),
		Delivered: f.met.Delivered.Value(),
		Dropped:   f.met.Dropped.Value(),
		Resident:  resident,
	}
	if err := terms.Check(); err != nil {
		return fmt.Errorf("closfabric: %w (backlog %d, channels %d, holds %d)",
			err, backlog, inChannels, inHolds)
	}
	if live := f.Resident(); live != resident {
		return fmt.Errorf("closfabric: slab accounting diverged at slot %d: %d live entries, %d frames resident",
			f.slot.Load(), live, resident)
	}
	return nil
}

// FailMiddle kills middle switch c whole: all its ports go down, every
// ingress masks the link feeding it, and routing stops choosing it. The
// transition takes effect at the next slot, like the engine-level fault
// setters. Idempotent.
func (f *Fabric) FailMiddle(c int) error { return f.setMiddle(c, false) }

// RecoverMiddle restores middle switch c. Held frames resume within a
// slot; routing starts choosing it again immediately. Idempotent.
func (f *Fabric) RecoverMiddle(c int) error { return f.setMiddle(c, true) }

// setMiddle brings middle switch c up or down: its liveness, the ingress
// outputs feeding it and both directions of each of its own ports.
func (f *Fabric) setMiddle(c int, live bool) error {
	if c < 0 || c >= f.m {
		return fmt.Errorf("%w: middle %d (m=%d)", ErrBadPort, c, f.m)
	}
	if f.midLive[c] == live {
		return nil
	}
	out, port, gauge, delta := (*rt.Engine).FailOutput, (*rt.Engine).FailPort, int64(0), -1
	if live {
		out, port, gauge, delta = (*rt.Engine).RecoverOutput, (*rt.Engine).Recover, 1, 1
	}
	f.midLive[c] = live
	f.live += delta
	f.met.MiddleLive[c].Set(gauge)
	for g := 0; g < f.r; g++ {
		if err := out(f.ingress[g], c); err != nil {
			return err
		}
	}
	for p := 0; p < f.r; p++ {
		if err := port(f.middle[c], p); err != nil {
			return err
		}
	}
	return nil
}

// Drain stops nothing but ticks the fabric until it is empty or maxSlots
// have elapsed, returning the number of frames still resident. Callers
// stop admitting first (or call Close).
func (f *Fabric) Drain(maxSlots int) (int64, error) {
	for s := 0; s < maxSlots && f.Resident() > 0; s++ {
		if err := f.Tick(); err != nil {
			return f.Resident(), err
		}
	}
	return f.Resident(), nil
}

// Close rejects further admissions. The engines are lockstep (no
// goroutines), so there is nothing else to stop; callers wanting an empty
// fabric call Drain first.
func (f *Fabric) Close() { f.closed = true }
