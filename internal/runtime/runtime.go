// Package runtime is the live counterpart of internal/simswitch: a
// concurrent switch engine that wraps any registered sched.Scheduler in a
// real-time slot loop and actually serves traffic instead of replaying a
// trace.
//
// Since the switchcore extraction, the engine holds no datapath of its
// own: the VOQ store, the incrementally maintained request matrix, the
// per-VOQ backlogs feeding sched.Context.QueueLens, and the slot scratch
// all live in one switchcore.Core[Frame] shared (as code) with the
// offline simulator. What remains here is the time domain: goroutines,
// locks, channels and clocks.
//
// The moving parts mirror the paper's Figure 11 model, mapped onto
// goroutines:
//
//   - Admission (any goroutine): Engine.Offer enqueues a frame on the
//     bounded VOQ of its (input, output) pair — one path of optional
//     stages, validate → steer → gate → rank → enqueue, of which Admit
//     and AdmitClass are the fixed-shape forms. A full VOQ returns
//     ErrBackpressure — the finite-buffer behaviour of the paper's model,
//     surfaced to the caller instead of silently dropped, so a network
//     front-end can push the signal back to the sender.
//   - Arbitration (one goroutine): every slot the arbiter snapshots the
//     request matrix (non-empty VOQs whose output channel has room), runs
//     the scheduler, pops the matched head-of-VOQ frames and sends them to
//     the per-output delivery channels. One frame per input and per output
//     per slot — the crossbar constraint. The slot's decision leaves the
//     datapath as one sched.GrantSet on either datapath; the tracer
//     (Config.Tracer) and Config.OnSlot both read that.
//   - Delivery (any goroutine): consumers receive from Engine.Output(j).
//     A slow consumer fills its bounded channel; the arbiter then masks
//     that output's column in the request matrix, so backpressure
//     propagates from output to VOQ to Admit, never blocking the slot
//     loop.
//
// Locking is sharded per input, matching the core's concurrency contract:
// input i's VOQ operations (admission pushes, the arbiter's snapshot of
// row i, grant pops) run under inMu[i], so admissions on different inputs
// never contend and the arbiter holds at most one input lock at a time.
// The slot scratch inside the core is arbiter-only.
//
// Two clocking modes share all of that machinery. With Config.SlotPeriod >
// 0, Start launches the arbiter on a deadline clock (the live mode
// cmd/lcfd uses; see SlotClock). With SlotPeriod == 0 the engine is in
// lockstep mode: the caller advances slots one Tick at a time, which is
// what makes the engine testable against the offline simulator slot for
// slot (see TestRuntimeMatchesSimswitch).
//
// Timing convention (vs simswitch): a slot runs snapshot → schedule →
// dispatch. Admissions are linearized at the snapshot — a frame admitted
// during slot t's tick is schedulable in slot t+1 at the latest. simswitch
// orders its slot promote → schedule → drain → arrivals, so an arrival in
// slot t is likewise first schedulable in slot t+1; driving the lockstep
// engine with "Tick, then admit slot t's arrivals" reproduces simswitch's
// grant vectors exactly (DESIGN.md §7).
package runtime

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flowtable"
	"repro/internal/matching"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pifo"
	"repro/internal/sched"
	"repro/internal/switchcore"
)

// Admission and lifecycle errors.
var (
	// ErrBackpressure reports a full VOQ: the frame was not admitted and
	// the caller should slow down or retry later (the paper's finite
	// PQ/VOQ model, surfaced instead of dropped).
	ErrBackpressure = errors.New("runtime: VOQ full (backpressure)")
	// ErrClosed reports admission after Close.
	ErrClosed = errors.New("runtime: engine closed")
	// ErrBadPort reports an out-of-range input or output port.
	ErrBadPort = errors.New("runtime: port out of range")
)

// Frame is one fixed-size cell travelling through the live switch. Payload
// bytes are not modelled (as in the paper, scheduling only cares about
// endpoints); Seq and Stamp are opaque caller values echoed on delivery so
// a client can correlate and time its frames.
type Frame struct {
	Src, Dst int
	Seq      uint64
	Stamp    uint64
	// Admitted and Departed are the engine slots the frame entered its VOQ
	// and crossed the fabric.
	Admitted, Departed int64
	// Class indexes Config.Classes for frames admitted through the class
	// tier (a classed request); -1 for classless frames. Deadline is the
	// absolute slot the frame's SLO expires at, -1 when none — delivery
	// past it counts in the class's SLO-violation counter.
	Class    int
	Deadline int64
}

// SlotEvent is the per-slot view handed to Config.OnSlot (lockstep
// observation and tracing). Grants is the slot's decision — the
// per-output grant vector both datapaths produce, with each grant's rule
// and choice count — valid during the callback only.
type SlotEvent struct {
	Slot      int64
	Grants    *sched.GrantSet
	Requested int // request-matrix bits this slot
	Matched   int // frames dispatched this slot
}

// Config parameterizes an Engine.
type Config struct {
	N int
	// Scheduler computes the central matching. Required by the "voq"
	// datapath; the "cicq" datapath arbitrates locally and ignores it
	// (it may be left nil there).
	Scheduler sched.Scheduler

	// Datapath selects the switch organization: "voq" (default; VOQ core
	// with one central matching per slot) or "cicq" (crosspoint-buffered,
	// independent per-input dispatch and per-output pull arbiters). See
	// switchcore.Names.
	Datapath string
	// XPCap bounds each crosspoint buffer ("cicq" only, an error on
	// "voq"; 0 means switchcore.DefaultXPCap).
	XPCap int

	// VOQCap bounds each of the n² VOQs; Admit returns ErrBackpressure
	// when the target VOQ is full. Default 256 (the paper's Figure 12
	// VOQ capacity).
	VOQCap int
	// OutCap bounds each per-output delivery channel. A full channel masks
	// the output's request column until the consumer catches up.
	// Default 256.
	OutCap int

	// Flows > 0 enables the flow-aware front tier (internal/flowtable):
	// a consistent-hash table sized for this many concurrent flows that
	// Offer's steer stage uses to steer 64-bit flow ids onto input ports,
	// so millions of client flows can share the n-port device. 0 (the
	// default) disables the tier; a steered request then returns
	// ErrNoFlowTable.
	Flows int
	// FlowPolicy names the steering policy for new flows — "hash",
	// "least" or "po2" (see flowtable.Names). "" means hash. Setting it
	// without Flows is a config error (the policy would steer nothing).
	FlowPolicy string
	// FlowShards overrides the flow table's lock-stripe count (0 means
	// the flowtable default). Tests use 1 to force probe clusters.
	FlowShards int
	// FlowSeed perturbs the flow-id hash (restart spreading).
	FlowSeed uint64

	// Classes, when non-empty, enables the programmable service-class
	// tier (internal/pifo): a bounded PIFO priority queue per
	// (input, output) pair in front of the VOQs, fed by classed requests
	// (Offer, AdmitClass) and drained into the VOQ heads in rank order
	// each tick. Empty (the default) disables the tier; a classed request
	// then returns ErrNoClasses. Each PIFO is bounded by VOQCap, the
	// pair's one queue bound: a PIFO reorders the pair's queue, it does
	// not enlarge it, and a full one refuses with ErrBackpressure. The
	// bound is not a reservation: a PIFO's heap starts empty and doubles
	// toward it as frames queue (never shrinking), so the tier's memory
	// follows the deepest backlog each pair has held.
	Classes []pifo.Class
	// Rank names the rank function programming the PIFOs — "fifo",
	// "strict", "wfq" or "deadline" (see pifo.Names). "" means fifo.
	// Setting it without Classes is a config error.
	Rank string

	// SlotPeriod > 0 selects live mode: Start runs the arbiter one slot
	// per period. 0 selects lockstep mode: the caller drives slots via
	// Tick.
	SlotPeriod time.Duration

	// FaultPolicy selects the disposition of frames stranded in VOQs
	// behind a failed link (see FailInput/FailOutput): HoldStranded (the
	// default) keeps them queued until recovery, DropStranded flushes and
	// counts them every slot while the link is down.
	FaultPolicy FaultPolicy

	// OnSlot, when non-nil, is invoked at the end of every slot with a
	// read-only view of the slot's outcome. It runs on the arbiter
	// goroutine; keep it fast.
	OnSlot func(SlotEvent)

	// OnDropped, when non-nil, is invoked for every frame the fault
	// policy flushes from a stranded VOQ (DropStranded only). It runs on
	// the arbiter goroutine, once per frame, before the frame is counted
	// in DroppedFault — the hook a composing layer (the Clos fabric)
	// uses to release per-frame state the engine is about to discard.
	OnDropped func(Frame)

	// Tracer, when non-nil, receives one obs slot event per tick: the
	// request cardinality and the slot's GrantSet, with per-grant
	// attribution when the scheduler implements sched.Explainer, plus the
	// fault, flow and class events of the tiers. A disabled tracer costs
	// one atomic load per slot; an enabled one performs atomic stores
	// into preallocated ring entries only (zero heap allocations either
	// way — see the traced BenchmarkEngineSlot variants).
	Tracer *obs.Tracer
}

func (c *Config) normalize() error {
	if c.N <= 0 {
		return fmt.Errorf("runtime: port count %d", c.N)
	}
	if !switchcore.Known(c.Datapath) {
		return fmt.Errorf("runtime: -datapath must be one of %s (got %q)", strings.Join(switchcore.Names(), ", "), c.Datapath)
	}
	if c.Scheduler == nil && c.Datapath != switchcore.DatapathCICQ {
		return fmt.Errorf("runtime: no scheduler")
	}
	if c.Scheduler != nil && c.Scheduler.N() != c.N {
		return fmt.Errorf("runtime: scheduler for %d ports, engine has %d", c.Scheduler.N(), c.N)
	}
	if c.XPCap != 0 && c.Datapath != switchcore.DatapathCICQ {
		// Crosspoint tuning without crosspoint buffers is a
		// misconfiguration, not a silent no-op.
		return fmt.Errorf("runtime: -xpcap requires -datapath cicq (XPCap %d)", c.XPCap)
	}
	if c.XPCap < 0 {
		return fmt.Errorf("runtime: negative crosspoint capacity %d", c.XPCap)
	}
	if c.VOQCap == 0 {
		c.VOQCap = 256
	}
	if c.OutCap == 0 {
		c.OutCap = 256
	}
	if c.VOQCap < 0 || c.OutCap < 0 {
		return fmt.Errorf("runtime: negative capacity (VOQCap %d, OutCap %d)", c.VOQCap, c.OutCap)
	}
	if c.SlotPeriod < 0 {
		return fmt.Errorf("runtime: negative slot period %v", c.SlotPeriod)
	}
	if c.FaultPolicy != HoldStranded && c.FaultPolicy != DropStranded {
		return fmt.Errorf("runtime: unknown fault policy %d", c.FaultPolicy)
	}
	if c.Flows < 0 {
		return fmt.Errorf("runtime: negative flow capacity %d", c.Flows)
	}
	// Tuning a tier that is off is a misconfiguration too.
	if c.Flows == 0 && c.FlowPolicy != "" {
		return fmt.Errorf("runtime: -flow-policy requires -flows > 0 (FlowPolicy %q set without Flows)", c.FlowPolicy)
	}
	if _, err := flowtable.NewPolicy(c.FlowPolicy); err != nil {
		return fmt.Errorf("runtime: -flow-policy: %w", err)
	}
	if len(c.Classes) == 0 {
		if c.Rank != "" {
			return fmt.Errorf("runtime: -rank requires -classes (Rank %q set without Classes)", c.Rank)
		}
		return nil
	}
	if err := pifo.ValidateClasses(c.Classes); err != nil {
		return err
	}
	_, err := pifo.NewRanker(c.Rank, c.Classes)
	return err
}

// Engine is one live switch instance.
type Engine struct {
	cfg Config
	n   int

	// dp holds the shared datapath (VOQ core or CICQ); inMu[i] guards
	// every datapath operation touching input i (see the package
	// comment).
	dp   switchcore.Datapath[Frame]
	inMu []sync.Mutex

	// snapped[i] reports that input i's last SnapshotRow found a
	// non-empty row, so its slot scratch may hold requests (see snapshot).
	// Arbiter-only.
	snapped []bool

	outs []chan Frame

	slot    atomic.Int64
	closed  atomic.Bool // admission gate
	started atomic.Bool

	// fault holds the per-port link state (see fault.go): setters write
	// the desired state from any goroutine, the arbiter folds it into the
	// core's fault masks at each slot top.
	fault faultState

	// flows is the flow-aware front tier (see flow.go), nil unless
	// Config.Flows > 0. Its steering policies read the engine's live
	// per-input backlog gauges and link-state atomics through flowView.
	flows *flowtable.Table

	// classes is the programmable service-class tier (see class.go), nil
	// unless Config.Classes is set: per-pair PIFO queues in front of the
	// VOQs, ranked by the configured pifo.Ranker.
	classes *classTier

	met Stats

	// parked and wake are the live arbiter's idle protocol (see park): the
	// arbiter sets parked before it blocks on an empty switch, and whoever
	// gives it work — an admission, a link transition — sends wake one
	// token if it sees the flag. A lockstep engine never sets the flag.
	parked atomic.Bool
	wake   chan struct{}

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// Stats holds the engine's live counters. All fields are safe to read
// concurrently with a running engine.
type Stats struct {
	Admitted      metrics.Counter // frames accepted by Admit
	Backpressured metrics.Counter // Admit calls rejected with ErrBackpressure
	Delivered     metrics.Counter // frames sent to an output channel
	Requested     metrics.Counter // request-matrix bits, summed over slots
	Matched       metrics.Counter // grants dispatched, summed over slots
	WastedGrants  metrics.Counter // grants whose VOQ drained before dispatch
	MaskedOutputs metrics.Counter // request bits suppressed by a full output channel
	Backlog       metrics.Gauge   // frames admitted, not yet delivered or dropped (VOQs, crosspoints, PIFOs)
	OccupiedVOQs  metrics.Gauge   // non-empty VOQs at the last snapshot (pre-mask)
	Parks         metrics.Counter // times the live arbiter blocked on an empty switch

	// Fault accounting (see fault.go). RejectedPortDown counts Admit
	// calls refused with ErrPortDown; FaultMasked counts request bits
	// suppressed because a link was down, summed over slots; DroppedFault
	// counts frames flushed from stranded VOQs under DropStranded;
	// Stranded gauges frames currently held behind failed links under
	// HoldStranded; Undrained gauges frames still queued when Close's
	// bounded drain gave up.
	RejectedPortDown metrics.Counter
	FaultMasked      metrics.Counter
	DroppedFault     metrics.Counter
	Stranded         metrics.Gauge
	Undrained        metrics.Gauge

	// GrantsByRule attributes every grant to the LCF decision rule that
	// produced it (sched.GrantRule order: unattributed, lcf, diagonal,
	// prescheduled). Schedulers that do not implement sched.Explainer
	// count everything as unattributed.
	GrantsByRule [sched.NumGrantRules]metrics.Counter

	PerInputAdmitted      []metrics.Counter
	PerInputBackpressured []metrics.Counter
	PerOutputDelivered    []metrics.Counter

	// PerInputBacklog is each input's share of Backlog as a lock-free
	// gauge: +1 on admission, -1 on delivery, -k on a stranded-VOQ
	// flush — exactly the three sites that move the global Backlog
	// gauge — so it counts PIFO-resident frames too. The flow tier's
	// steering policies read it on every new-flow decision, and the
	// scrape path (Snapshot's Ports, lcf_input_backlog_frames) reads it
	// instead of taking input locks.
	PerInputBacklog []metrics.Gauge

	// VOQDepth samples every non-empty VOQ's length once per slot;
	// MatchSize records the matching cardinality of every slot (the
	// paper's match-size distribution, Figure 5 territory); SlotLatency
	// records the arbiter's per-tick compute time in nanoseconds (how
	// much of the slot budget scheduling consumes).
	VOQDepth    *metrics.LiveHistogram
	MatchSize   *metrics.LiveHistogram
	SlotLatency *metrics.LiveHistogram
}

// New builds an engine. In live mode (SlotPeriod > 0) call Start to launch
// the arbiter; in lockstep mode drive it with Tick.
func New(cfg Config) (*Engine, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	n := cfg.N
	dp, err := switchcore.NewDatapath[Frame](cfg.Datapath, n, cfg.VOQCap, cfg.XPCap)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:     cfg,
		n:       n,
		dp:      dp,
		inMu:    make([]sync.Mutex, n),
		snapped: make([]bool, n),
		outs:    make([]chan Frame, n),
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	e.fault.init(n)
	for j := range e.outs {
		e.outs[j] = make(chan Frame, cfg.OutCap)
	}
	e.met = Stats{
		PerInputAdmitted:      make([]metrics.Counter, n),
		PerInputBackpressured: make([]metrics.Counter, n),
		PerOutputDelivered:    make([]metrics.Counter, n),
		PerInputBacklog:       make([]metrics.Gauge, n),
		// Depth buckets 1,2,4,…,VOQCap; match-size buckets 0..n (one per
		// possible cardinality); latency buckets 125ns…~4ms, fine enough
		// at the low end to resolve a 1–2 µs slot.
		VOQDepth:    metrics.NewLiveHistogram(metrics.ExponentialBounds(1, 2, depthBuckets(cfg.VOQCap))),
		MatchSize:   metrics.NewLiveHistogram(metrics.LinearBounds(0, 1, n+1)),
		SlotLatency: metrics.NewLiveHistogram(metrics.ExponentialBounds(125, 2, 16)),
	}
	if cfg.Flows > 0 {
		// Rehome follows the fault policy: under hold, stranded frames
		// survive an outage in place, so the flow must stay with them
		// (KeepOnDown); under drop there is nothing to reorder around and
		// moving the flow restores service (RehomeOnDown). See the
		// flowtable.RehomePolicy docs.
		rehome := flowtable.KeepOnDown
		if cfg.FaultPolicy == DropStranded {
			rehome = flowtable.RehomeOnDown
		}
		tbl, err := flowtable.New(flowtable.Config{
			Ports:    flowView{e},
			Capacity: cfg.Flows,
			Shards:   cfg.FlowShards,
			Policy:   cfg.FlowPolicy,
			Rehome:   rehome,
			Seed:     cfg.FlowSeed,
		})
		if err != nil {
			return nil, err
		}
		e.flows = tbl
	}
	if len(cfg.Classes) > 0 {
		ct, err := newClassTier(n, &cfg)
		if err != nil {
			return nil, err
		}
		e.classes = ct
	}
	return e, nil
}

func depthBuckets(voqCap int) int {
	b := 1
	for 1<<b < voqCap {
		b++
	}
	return b + 1
}

// N returns the port count.
func (e *Engine) N() int { return e.n }

// SchedulerName returns the wrapped scheduler's evaluation label — or
// switchcore.CICQScheduler on a CICQ engine running without a central
// scheduler (its local arbiters are the scheduler). Safe concurrently:
// Name is a pure getter on every registered scheduler.
func (e *Engine) SchedulerName() string {
	if e.cfg.Scheduler == nil {
		return switchcore.CICQScheduler
	}
	return e.cfg.Scheduler.Name()
}

// DatapathName returns the datapath the engine was built with ("voq" or
// "cicq").
func (e *Engine) DatapathName() string {
	if e.cfg.Datapath == "" {
		return switchcore.DatapathVOQ
	}
	return e.cfg.Datapath
}

// Slot returns the current slot number (the number of completed ticks).
func (e *Engine) Slot() int64 { return e.slot.Load() }

// Stats returns the engine's live counters for scraping.
func (e *Engine) Stats() *Stats { return &e.met }

// Output returns the delivery channel for output port j. The channel is
// closed after Close has drained the engine.
func (e *Engine) Output(j int) <-chan Frame {
	if j < 0 || j >= e.n {
		panic(fmt.Sprintf("runtime: output %d out of range [0,%d)", j, e.n))
	}
	return e.outs[j]
}

// Request is one frame offered to the engine through Offer. The zero
// value plus Src, Dst, Seq and Stamp is a plain frame; the presence flags
// switch the optional admission stages on. With Steered the flow tier
// resolves the input port from Flow and Src is ignored; with Classed the
// frame is ranked in its (input, output) PIFO under Class, Budget > 0
// overriding the class's SLO budget for this frame. Both may be set: the
// frame is steered to its flow's port and ranked in that port's PIFO.
type Request struct {
	Src, Dst   int
	Seq, Stamp uint64
	Flow       uint64
	Steered    bool
	Class      int
	Classed    bool
	Budget     int64
}

// Offer is the engine's admission path: validate → steer → gate → rank →
// enqueue, the steer and rank stages running only when the request asks
// for them. Everything that can be refused from the request alone — a
// tier that is off, a port or class out of range — and a closed engine is
// refused before the steer stage, so a refused request leaves no flow
// behind in the steering table. The link gate runs after it: a frame
// toward a down port still resolves (and, under the drop pairing,
// rehomes) its flow, which is what keeps a flow sticky across an outage.
//
// port is the input the frame was offered on — r.Src, or the flow's port
// for a steered request, also when the gate or a full queue then refuses
// the frame, so backpressure can be attributed to the port the flow lives
// on — and -1 when the request was refused before that was known.
//
// Errors, in the order they win: ErrNoClasses / ErrNoFlowTable,
// ErrBadPort, ErrBadClass, ErrClosed, flowtable.ErrTableFull (a new flow,
// table at capacity; treat it as backpressure), ErrPortDown,
// ErrBackpressure (the PIFO of a classed request, else the VOQ, is
// full). Safe for concurrent use from any goroutine.
func (e *Engine) Offer(r Request) (port int, err error) {
	switch {
	case r.Classed && e.classes == nil:
		return -1, ErrNoClasses
	case r.Steered && e.flows == nil:
		return -1, ErrNoFlowTable
	case r.Dst < 0 || r.Dst >= e.n || !r.Steered && (r.Src < 0 || r.Src >= e.n):
		return -1, fmt.Errorf("%w: src %d dst %d (n=%d)", ErrBadPort, r.Src, r.Dst, e.n)
	case r.Classed && (r.Class < 0 || r.Class >= len(e.classes.classes)):
		return -1, fmt.Errorf("%w: class %d (have %d)", ErrBadClass, r.Class, len(e.classes.classes))
	}
	src, class := r.Src, -1
	if r.Steered {
		if err := e.open(); err != nil {
			return -1, err
		}
		if src, err = e.steer(r.Flow); err != nil {
			return -1, err
		}
	}
	if r.Classed {
		class = r.Class
	}
	return src, e.admit(src, r.Dst, r.Seq, r.Stamp, class, r.Budget)
}

// Admit is Offer for a plain frame from input src to output dst, without
// the Request: ErrBadPort, ErrClosed, ErrPortDown or ErrBackpressure
// when the (src,dst) VOQ is full. Safe for concurrent use from any
// goroutine.
func (e *Engine) Admit(src, dst int, seq, stamp uint64) error {
	if src < 0 || src >= e.n || dst < 0 || dst >= e.n {
		return fmt.Errorf("%w: src %d dst %d (n=%d)", ErrBadPort, src, dst, e.n)
	}
	return e.admit(src, dst, seq, stamp, -1, 0)
}

// open is the closed flag, the first thing the gate checks. Offer reads
// it ahead of the steer stage as well, so a closed engine's steering
// table stays as Close found it.
func (e *Engine) open() error {
	if e.closed.Load() {
		return ErrClosed
	}
	return nil
}

// admit is where every door ends once its request is validated and, if
// steered, resolved to an input: gate → rank → enqueue, each written here
// and nowhere else. class < 0 is an unclassed frame. It is one function
// rather than one per stage because the whole path is two atomic loads,
// a lock and four counters: a non-inlined call per stage, with a Frame
// or a Request crossing it, is a measurable share of that (EXPERIMENTS.md
// E35 has the shapes side by side).
func (e *Engine) admit(src, dst int, seq, stamp uint64, class int, budget int64) error {
	// Gate: the closed flag, then the link state — one atomic load in the
	// healthy case. A transition racing this check is benign — a frame
	// slipping past lands in a queue the fault mask strands (and, under
	// DropStranded, the next sweep flushes), so conservation accounting
	// still sees it.
	if err := e.open(); err != nil {
		return err
	}
	if e.fault.anyDown.Load() && (e.fault.inDown[src].Load() || e.fault.outDown[dst].Load()) {
		e.met.RejectedPortDown.Inc()
		return fmt.Errorf("%w: src %d dst %d", ErrPortDown, src, dst)
	}

	// Rank: a classed frame is bound to its deadline here and ranked under
	// the lock below, because the rank functions keep per-pair state.
	ct := e.classes
	f := Frame{Src: src, Dst: dst, Seq: seq, Stamp: stamp, Admitted: e.slot.Load(), Departed: -1, Class: class, Deadline: -1}
	if class >= 0 {
		f.Deadline = ct.deadline(class, budget, f.Admitted)
	}

	// Enqueue: into the pair's PIFO when the frame carries a class, into
	// the VOQ otherwise. PIFO-resident frames count in the same backlog
	// gauges as VOQ frames: the drain, the conservation ledger and the
	// flow tier's steering policies all see one consistent "queued in the
	// switch" quantity.
	mu := &e.inMu[src]
	mu.Lock()
	// Re-check under the lock: Close sets the flag and then takes each
	// input lock once, so a frame pushed here is guaranteed visible (queue
	// and Backlog gauge both) before the drain decides the engine is
	// empty — admission never strands a frame behind a nil return.
	if e.closed.Load() {
		mu.Unlock()
		return ErrClosed
	}
	var ok bool
	if class >= 0 {
		ok = ct.queues.Push(src, dst, f, ct.rankers[src*e.n+dst].Rank(class, f.Admitted, f.Deadline))
	} else {
		ok = e.dp.Enqueue(src, dst, f)
	}
	if ok {
		e.met.Backlog.Add(1)
		e.met.PerInputBacklog[src].Add(1)
		if class >= 0 {
			ct.pending[src].Add(1)
			ct.queued[class].Add(1)
		}
	}
	mu.Unlock()
	if !ok {
		e.met.Backpressured.Inc()
		e.met.PerInputBackpressured[src].Inc()
		return ErrBackpressure
	}
	e.wakeArbiter()
	e.met.Admitted.Inc()
	e.met.PerInputAdmitted[src].Inc()
	if class >= 0 {
		ct.admitted[class].Inc()
	}
	return nil
}

// Tick advances the engine by one slot synchronously: snapshot the request
// matrix, run the scheduler, dispatch the matched frames. Lockstep mode
// only — it must not be called concurrently with itself or with a Started
// arbiter.
func (e *Engine) Tick() {
	if e.started.Load() {
		panic("runtime: Tick on a Started engine")
	}
	e.tick()
}

// Start launches the arbiter goroutine (live mode). It errors in lockstep
// mode (SlotPeriod == 0) or if already started.
func (e *Engine) Start() error {
	if e.cfg.SlotPeriod <= 0 {
		return fmt.Errorf("runtime: Start needs SlotPeriod > 0 (lockstep engines are driven by Tick)")
	}
	if !e.started.CompareAndSwap(false, true) {
		return fmt.Errorf("runtime: already started")
	}
	go e.run()
	return nil
}

// run is the live arbiter: one slot per period while there is anything to
// do, none at all while the switch is empty. The clock drops the periods
// a slow slot overruns, and a parked arbiter runs none, so the slot
// counter and every per-slot instrument see only slots that ran. The
// first slot is due one period after Start; the first after a park runs
// at once if a period has passed since the last one started, and waits
// out the rest of it otherwise, so slots are never closer together than
// SlotPeriod across a park.
func (e *Engine) run() {
	clk := NewSlotClock(e.cfg.SlotPeriod)
	for clk.Wait(e.stop) {
		matched := e.tick()
		idle := e.idle()
		clk.Advance(matched == 0 && !idle)
		if idle {
			e.park()
		}
	}
	e.drain(clk)
	close(e.done)
}

// idle reports that a slot would find nothing to do: no frame anywhere in
// the switch (Backlog covers VOQs, PIFOs and crosspoints) and no link
// transition waiting to be applied. Frames held behind a failed link or a
// full output keep Backlog above zero, so the loop keeps polling for them.
// Arbiter-only (fault.applied).
func (e *Engine) idle() bool {
	return e.met.Backlog.Value() == 0 && e.fault.gen.Load() == e.fault.applied
}

// park blocks the arbiter until wakeArbiter or Close. An arbiter that
// polled an empty switch would keep a processor awake every period — a
// whole core at a microsecond slot — so it blocks instead. The flag is
// published before the emptiness re-check and wakers publish their work
// before reading the flag, both sequentially consistent: either the waker
// sees parked and sends the token, or the re-check sees its work.
func (e *Engine) park() {
	e.parked.Store(true)
	if e.idle() {
		e.met.Parks.Inc()
		select {
		case <-e.wake:
		case <-e.stop: // run's clock sees it next
		}
	}
	e.parked.Store(false)
}

// wakeArbiter is the waker's half of park: called after the caller's work
// is visible (Backlog raised, fault generation bumped). One atomic load
// unless the arbiter is parked; the one-token channel makes concurrent
// wakers idempotent.
func (e *Engine) wakeArbiter() {
	if e.parked.Load() {
		select {
		case e.wake <- struct{}{}:
		default:
		}
	}
}

// stallFloor is the wall time a drain waits without progress before it
// gives up on the frames left: long enough that a consumer which is
// behind — descheduled, collecting garbage — is not taken for one that
// is gone.
const stallFloor = 10 * time.Millisecond

// drain keeps ticking until the switch is empty or stalls. Backlog can
// only fall during a drain (admission is closed), so a stall — no frame
// delivered or dropped for more than 2n slots and at least stallFloor —
// means every remaining frame is stuck behind a failed link or an output
// channel nobody reads. A live drain (clk non-nil) is paced by the
// arbiter's clock, exactly as run paces its slots; a lockstep drain ticks
// at full speed and yields after a slot that moved nothing, so a consumer
// sharing the processor gets to run.
func (e *Engine) drain(clk *SlotClock) {
	stalled, since := 0, time.Time{}
	last := e.met.Backlog.Value()
	for last > 0 {
		if clk != nil {
			clk.Wait(nil)
		}
		e.tick()
		cur := e.met.Backlog.Value()
		moved := cur < last
		last = cur
		if moved {
			stalled = 0
		} else {
			if stalled == 0 {
				since = time.Now()
			}
			if stalled++; stalled > 2*e.n && time.Since(since) >= stallFloor {
				break
			}
		}
		if clk != nil {
			clk.Advance(!moved)
		} else if !moved {
			goruntime.Gosched()
		}
	}
	// Whatever is still queued — frames held behind failed links, or
	// stuck behind an output nobody consumed — is accounted here before
	// the channels close, so shutdown never loses frames silently.
	e.met.Undrained.Set(e.met.Backlog.Value())
	for _, ch := range e.outs {
		close(ch)
	}
}

// Close stops admission, drains queued frames through the slot loop, then
// closes the output channels. It blocks until the drain completes. Safe to
// call more than once.
//
// The drain ticks until the switch is empty or no frame has left it for
// 2n slots and 10 ms, whichever comes first: a consumer that keeps reading
// is waited for, however slowly it reads, and frames stuck behind an
// output nobody reads or a failed link are counted in Stats.Undrained.
// A live engine drains on its slot clock, a lockstep one at full speed.
func (e *Engine) Close() {
	e.stopOnce.Do(func() {
		e.closed.Store(true)
		// Barrier: an Admit that read closed==false holds its input lock
		// until the push and backlog update land; cycling every lock here
		// means the drain below cannot observe Backlog==0 while such a
		// frame is still in flight. Admits locking after this see the flag.
		for i := range e.inMu {
			e.inMu[i].Lock()
			e.inMu[i].Unlock() //nolint:staticcheck // empty critical section is the point
		}
		if e.started.Load() {
			close(e.stop)
			<-e.done
			return
		}
		// Lockstep: drain inline at full speed.
		e.drain(nil)
		close(e.done)
	})
	<-e.done
}

// tick is one slot of the arbiter: apply faults → sweep stranded → class
// fill → mask full outputs → snapshot → arbitrate → dispatch →
// metrics/trace/OnSlot (DESIGN.md §7). It returns the frames dispatched,
// which the live clock reads.
func (e *Engine) tick() (matched int) {
	start := time.Now()
	now := e.slot.Load()

	// Fold pending link-state transitions into the core's fault masks and
	// dispose of stranded frames per the fault policy, before the snapshot
	// sees them: a port failed during slot t-1 receives zero grants in
	// slot t, and a recovered one resumes service in the same slot.
	e.applyFaults(now)
	e.sweepStranded()

	// Feed the VOQ heads from the class tier's PIFOs (no-op without
	// classes) before the snapshot, so rank order decides this slot's
	// requests.
	e.classFill()

	e.maskFullOutputs()
	requested, masked, faulted := e.snapshot()
	e.recordSnapshot(requested, masked, faulted)

	// Arbitrate every slot, requests or not: round-robin pointers and
	// other slot-to-slot state must advance exactly as they do in the
	// offline simulator for the lockstep cross-check to hold. The VOQ
	// datapath runs the central scheduler here; CICQ runs its per-output
	// pull arbiters and ignores the argument.
	grants := e.dp.Arbitrate(e.cfg.Scheduler)

	matched = e.dispatch(grants, now)

	e.met.Requested.Add(int64(requested))
	e.met.Matched.Add(int64(matched))
	e.met.MatchSize.Observe(float64(grants.Size()))
	e.met.SlotLatency.Observe(float64(time.Since(start).Nanoseconds()))

	e.cfg.Tracer.EmitGrants(now, requested, grants)

	if e.cfg.OnSlot != nil {
		e.cfg.OnSlot(SlotEvent{Slot: now, Grants: grants, Requested: requested, Matched: matched})
	}
	e.slot.Add(1)
	return matched
}

// maskFullOutputs resets the per-slot output mask and masks every full
// delivery channel: a backpressured output must not attract grants it
// cannot accept. Only the arbiter sends on outs, so "not full here"
// cannot become full before the grants dispatch.
func (e *Engine) maskFullOutputs() {
	e.dp.ResetOutputMask()
	for j := range e.outs {
		if len(e.outs[j]) == cap(e.outs[j]) {
			e.dp.MaskOutput(j)
		}
	}
}

// snapshot snapshots every input row that holds frames and returns the
// summed requested/masked/faulted counts: each input's occupancy row and
// queue lengths are copied into the datapath's slot scratch under that
// input's lock, so the scheduler reads only the snapshot, never state a
// concurrent Admit is writing.
//
// An input whose PerInputBacklog reads 0 (one atomic load, no lock) and
// whose row was already empty at its last snapshot is skipped: its
// scratch is still the clear row that snapshot left, which is what
// SnapshotRow would write again, so the slot's work follows what is
// queued rather than n. A row that emptied since gets one more
// SnapshotRow, which clears it. An admission racing the load is
// schedulable next slot, as one racing the lock always was.
func (e *Engine) snapshot() (requested, masked, faulted int) {
	for i := 0; i < e.n; i++ {
		if !e.snapped[i] && e.met.PerInputBacklog[i].Value() == 0 {
			continue
		}
		mu := &e.inMu[i]
		mu.Lock()
		row := e.dp.OccupiedRow(i)
		for j := row.FirstSet(); j >= 0; j = row.NextSet(j + 1) {
			e.met.VOQDepth.Observe(float64(e.dp.Len(i, j)))
		}
		r, m, f := e.dp.SnapshotRow(i)
		e.snapped[i] = r+m+f > 0
		requested += r
		masked += m
		faulted += f
		mu.Unlock()
	}
	return requested, masked, faulted
}

// recordSnapshot folds one snapshot's mask/fault counts into the
// counters. requested+masked+faulted is the number of non-empty VOQs at
// snapshot time: masking (backpressure or fault) suppresses request bits
// but not occupancy.
func (e *Engine) recordSnapshot(requested, masked, faulted int) {
	if masked > 0 {
		e.met.MaskedOutputs.Add(int64(masked))
	}
	if faulted > 0 {
		e.met.FaultMasked.Add(int64(faulted))
	}
	e.met.OccupiedVOQs.Set(int64(requested + masked + faulted))
}

// dispatch pops and delivers the slot's granted frames, one input lock at
// a time, and returns how many crossed. The three failure legs are
// unreachable with a correct arbiter (fault masking removes the request
// bits, grants imply requests, and the output mask guarantees channel
// room) but must not lose a frame or its accounting under a buggy one:
// each counts a WastedGrant, and a frame that cannot cross stays queued.
func (e *Engine) dispatch(g *sched.GrantSet, now int64) (matched int) {
	for j := 0; j < e.n; j++ {
		i := g.Src[j]
		if i == matching.Unmatched {
			continue
		}
		// Attribute the grant to its decision rule. This counts the
		// arbiter's decision, not the dispatch outcome: a grant wasted
		// on a drained VOQ or a full channel was still decided.
		e.met.GrantsByRule[g.Rule[j]].Inc()
		// A failed port must never receive a grant, even under a buggy
		// arbiter.
		if e.dp.InputDown(i) || e.dp.OutputDown(j) {
			e.met.WastedGrants.Inc()
			continue
		}
		mu := &e.inMu[i]
		mu.Lock()
		f, ok := e.dp.Take(j)
		mu.Unlock()
		if !ok {
			// Cannot happen: grants imply requests and only the arbiter
			// pops.
			e.met.WastedGrants.Inc()
			continue
		}
		f.Departed = now
		select {
		case e.outs[j] <- f:
			matched++
			if f.Class >= 0 && e.classes != nil {
				e.observeClassDelivery(f, now)
			}
			e.met.Delivered.Inc()
			e.met.PerOutputDelivered[j].Inc()
			e.met.Backlog.Add(-1)
			e.met.PerInputBacklog[i].Add(-1)
		default:
			// Unreachable while the output mask holds (consumers only
			// drain, so a channel with room at snapshot time still has
			// room); keep the frame rather than lose it.
			mu.Lock()
			e.dp.Untake(j, f)
			mu.Unlock()
			e.met.WastedGrants.Inc()
		}
	}
	return matched
}
