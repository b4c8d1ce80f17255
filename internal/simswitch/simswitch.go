// Package simswitch implements the slot-based switch simulator of the
// paper's Figure 11: packet generators feed per-input packet queues (PQ),
// packets move into virtual output queues (VOQ) when space permits, a
// scheduler matches inputs to outputs every slot, and the crossbar forwards
// the matched packets. Three switch organizations are supported, matching
// the three architectures of the Figure 12 evaluation:
//
//   - VOQ: the input-buffered switch with virtual output queues that all
//     schedulers except fifo run on.
//   - FIFO: a single FIFO input queue per port (head-of-line blocking),
//     driven by the fifo scheduler.
//   - OutputBuffered: the outbuf reference — packets traverse the fabric
//     immediately on arrival and queue at the output, which drains one
//     packet per slot.
//
// Timing convention: a slot first promotes queued packets, then schedules
// and transfers, then drains output buffers, and finally admits new
// arrivals. A packet generated in slot t is therefore schedulable from
// slot t+1 and its minimum queuing delay (departure − generation) is one
// slot for every organization, which is what lets Figure 12b plot ratios
// that converge to 1 at low load.
//
// The VOQ organization's datapath — the bounded VOQ store, the
// incrementally maintained request matrix, and the per-VOQ backlogs that
// populate sched.Context.QueueLens — lives in internal/switchcore and is
// shared verbatim with the live engine (internal/runtime); this package
// contributes only the synchronous time domain: the trace-driven slot
// loop, the PQ/FIFO/output-buffer stages around the core, and the
// measurement plumbing. The FIFO and OutputBuffered organizations have no
// VOQs and keep plain queue.Ring stages.
//
// The simulator does not trace by itself: Config.Trace receives every
// slot's decision as the same sched.GrantSet the live engine traces, and
// cmd/lcftrace records it into an obs ring from there.
package simswitch

import (
	"fmt"
	"math"

	"repro/internal/bitvec"
	"repro/internal/datapath"
	"repro/internal/fabric"
	"repro/internal/matching"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/queue"
	"repro/internal/sched"
	"repro/internal/switchcore"
	"repro/internal/traffic"
)

// Mode selects the switch organization.
type Mode int

// Switch organizations.
const (
	// VOQ is the input-buffered, virtual-output-queued switch.
	VOQ Mode = iota
	// FIFO is the single-input-queue organization served by the fifo
	// scheduler.
	FIFO
	// OutputBuffered is the outbuf reference switch (no input contention;
	// all queuing at the outputs).
	OutputBuffered
	// CICQ is the crosspoint-buffered organization (switchcore.CICQ):
	// independent per-input dispatch and per-output pull arbiters
	// applying the least-choice rule locally, no central matching.
	CICQ
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case VOQ:
		return "voq"
	case FIFO:
		return "fifo"
	case OutputBuffered:
		return "outbuf"
	case CICQ:
		return "cicq"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Config parameterizes one simulation run. The defaults of Normalize are
// the paper's Figure 12 settings.
type Config struct {
	N    int
	Mode Mode
	// Scheduler computes the per-slot matching for the VOQ and FIFO
	// organizations; OutputBuffered ignores it.
	Scheduler sched.Scheduler
	// Gen supplies arrivals. Required.
	Gen traffic.Generator

	// Queue capacities; Figure 12 uses VOQCap 256, PQCap 1000 and 256-
	// entry output buffers.
	VOQCap    int
	PQCap     int
	OutBufCap int
	// XPCap bounds each crosspoint buffer (CICQ organization only; 0
	// means datapath.DefaultXPCap).
	XPCap int

	// WarmupSlots are simulated but not measured; statistics cover packets
	// generated during the following MeasureSlots.
	WarmupSlots  int64
	MeasureSlots int64

	// Speedup runs the scheduler and fabric Speedup times per slot (VOQ
	// organization only), with departures smoothed through per-output
	// buffers draining one packet per slot — the combined input/output
	// queueing (CIOQ) configuration studied as the bridge between input
	// and output queueing (Chuang et al. showed speedup 2 suffices to
	// emulate an output-queued switch). 0 or 1 means no speedup; this is
	// an extension experiment, not part of the paper's evaluation.
	Speedup int

	// PipelineDepth models the scheduling pipeline of Section 1 and
	// Figure 5: the schedule computed from slot t's queue state takes
	// effect PipelineDepth−1 slots later (Clint computes in slot c and
	// transfers in c+1, i.e. depth 2). Deeper pipelines relax the
	// scheduler's timing budget but act on staler queue state: a grant
	// whose VOQ drained in the meantime is wasted (counted in
	// Result.WastedGrants) and the pipeline latency adds to every
	// packet's delay, exactly as the paper cautions ("these techniques do
	// not reduce latency and the scheduling latency adds to the overall
	// switch forwarding latency"). 0 or 1 = immediate application.
	// VOQ organization only.
	PipelineDepth int

	// Validate re-checks every schedule against the request matrix (the
	// crossbar always enforces physical conflict-freedom; this adds the
	// "grant implies request" check). Cheap; on by default in tests.
	Validate bool
	// HistogramBuckets sizes the delay histogram; 0 disables it.
	HistogramBuckets int
	// Trace, when non-nil, is invoked once per slot after transfer (once
	// per pass with Speedup) with a read-only view of the slot's activity.
	Trace func(TraceEvent)
}

// DepartInfo is a by-value record of one departure, safe to retain after
// the trace callback returns (the packet itself is recycled).
type DepartInfo struct {
	ID        uint64
	Src, Dst  int
	Generated packet.Slot
	Departed  packet.Slot
}

// TraceEvent is the per-slot view handed to Config.Trace.
type TraceEvent struct {
	Slot     packet.Slot
	Requests *bitvec.Matrix // valid during the callback only
	// Match is the crossbar configuration applied this slot (nil on CICQ,
	// which has no crossbar). It differs from Grants only when
	// PipelineDepth > 1, where an aged decision transfers.
	Match *matching.Match
	// Grants is the decision computed this slot, per output and with each
	// grant's rule and choice count when the scheduler implements
	// sched.Explainer — the record cmd/lcftrace writes to its obs ring.
	// Valid during the callback only.
	Grants *sched.GrantSet
	Moved  int
	// Departures lists the packets that left the system this slot, in
	// departure order. Valid during the callback only (reused backing
	// array); copy entries to retain them.
	Departures []DepartInfo
}

// Normalize fills in the paper's defaults and checks consistency.
func (c *Config) Normalize() error {
	if c.N <= 0 {
		return fmt.Errorf("simswitch: port count %d", c.N)
	}
	if c.Gen == nil {
		return fmt.Errorf("simswitch: no traffic generator")
	}
	if c.Gen.N() != c.N {
		return fmt.Errorf("simswitch: generator for %d ports, switch has %d", c.Gen.N(), c.N)
	}
	if c.Mode != OutputBuffered && c.Mode != CICQ {
		if c.Scheduler == nil {
			return fmt.Errorf("simswitch: %v organization needs a scheduler", c.Mode)
		}
		if c.Scheduler.N() != c.N {
			return fmt.Errorf("simswitch: scheduler for %d ports, switch has %d", c.Scheduler.N(), c.N)
		}
	}
	if c.XPCap < 0 {
		return fmt.Errorf("simswitch: negative crosspoint capacity %d", c.XPCap)
	}
	if c.VOQCap == 0 {
		c.VOQCap = 256
	}
	if c.PQCap == 0 {
		c.PQCap = 1000
	}
	if c.OutBufCap == 0 {
		c.OutBufCap = 256
	}
	if c.VOQCap < 0 || c.PQCap < 0 || c.OutBufCap < 0 {
		return fmt.Errorf("simswitch: negative queue capacity")
	}
	if c.WarmupSlots < 0 || c.MeasureSlots <= 0 {
		return fmt.Errorf("simswitch: warmup %d / measure %d slots", c.WarmupSlots, c.MeasureSlots)
	}
	if c.Speedup == 0 {
		c.Speedup = 1
	}
	if c.Speedup < 1 {
		return fmt.Errorf("simswitch: speedup %d", c.Speedup)
	}
	if c.Speedup > 1 && c.Mode != VOQ {
		return fmt.Errorf("simswitch: speedup applies to the VOQ organization only")
	}
	if c.PipelineDepth == 0 {
		c.PipelineDepth = 1
	}
	if c.PipelineDepth < 1 {
		return fmt.Errorf("simswitch: pipeline depth %d", c.PipelineDepth)
	}
	if c.PipelineDepth > 1 && c.Mode != VOQ {
		return fmt.Errorf("simswitch: pipelined scheduling applies to the VOQ organization only")
	}
	if c.PipelineDepth > 1 && c.Speedup > 1 {
		return fmt.Errorf("simswitch: pipeline depth and speedup cannot be combined")
	}
	return nil
}

// Result carries the measurements of one run.
type Result struct {
	SchedulerName string
	Mode          Mode
	Load          float64 // configured offered load
	Delay         metrics.Stream
	Hist          *metrics.Histogram // nil unless HistogramBuckets > 0
	Flows         *metrics.FlowMatrix
	Counters      metrics.Counters
	// MaxVOQLen is the largest VOQ (or input FIFO / output buffer) length
	// observed during measurement.
	MaxVOQLen int
	// WastedGrants counts pipelined grants that found their VOQ already
	// drained by an earlier stale grant (PipelineDepth > 1).
	WastedGrants int64
	// DelayCI95 is the half-width of a batch-means 95% confidence
	// interval for the mean queuing delay (Inf when the run completed
	// fewer than two 2000-packet batches). Batch means, not the naive
	// per-sample interval, because consecutive delays are autocorrelated.
	DelayCI95 float64
	// Choice tracks the per-slot average number of non-empty VOQs per
	// input during measurement — the "choice" the LCF rule feeds on.
	// Section 6.3 hypothesizes that the round-robin addition levels VOQ
	// lengths and thereby maintains choice at very high load; this
	// statistic is how experiment E24 tests that claim.
	Choice metrics.Stream
	// VOQSpread tracks the per-slot standard deviation of VOQ lengths
	// (over the n² queues), the "leveling" half of the same hypothesis.
	VOQSpread metrics.Stream
	// StillQueued counts packets in any queue at the end of the run, for
	// the conservation check.
	StillQueued int
}

// Sim is one instantiated switch simulation.
type Sim struct {
	cfg  Config
	xbar *fabric.Crossbar
	pool *packet.Pool

	pqs   []queue.Ring[*packet.Packet] // per-input packet queues
	ififo []queue.Ring[*packet.Packet] // FIFO organization: single input queue
	obufs []queue.Ring[*packet.Packet] // OutputBuffered organization, and CIOQ's output buffers

	// core is the shared VOQ datapath (VOQ organization only): queues,
	// incremental request matrix, backlogs, per-slot scratch.
	core *switchcore.Core[*packet.Packet]
	// xq is the crosspoint-buffered datapath (CICQ organization only).
	xq *switchcore.CICQ[*packet.Packet]

	req      *bitvec.Matrix  // FIFO organization's HOL request matrix
	match    *matching.Match // FIFO organization's match scratch
	departed []DepartInfo    // per-slot scratch for Config.Trace

	// grants is the computed decision handed to Config.Trace (VOQ and
	// FIFO organizations, only when Trace is set), attributed by ex.
	grants *sched.GrantSet
	ex     sched.Explainer

	// pipeline holds matches computed but not yet applied (depth−1 of
	// them at steady state), oldest first.
	pipeline []*matching.Match
	stale    *matching.Match // scratch: the filtered stale match
	inflight [][]int         // scratch: outstanding grants per (i,j)

	now     packet.Slot
	warmed  bool
	res     Result
	delayBM *metrics.BatchMeans
}

// New builds a simulation from cfg (normalizing it first).
func New(cfg Config) (*Sim, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	n := cfg.N
	s := &Sim{
		cfg:   cfg,
		xbar:  fabric.New(n),
		pool:  packet.NewPool(),
		pqs:   rings(n, cfg.PQCap),
		req:   bitvec.NewMatrix(n),
		match: matching.NewMatch(n),
		stale: matching.NewMatch(n),
	}
	if cfg.Trace != nil {
		s.grants = sched.NewGrantSet(n)
		s.ex, _ = cfg.Scheduler.(sched.Explainer)
	}
	switch cfg.Mode {
	case VOQ:
		s.core = switchcore.New[*packet.Packet](n, cfg.VOQCap)
	case CICQ:
		xp := cfg.XPCap
		if xp <= 0 {
			xp = datapath.DefaultXPCap
		}
		s.xq = switchcore.NewCICQ[*packet.Packet](n, cfg.VOQCap, xp, false)
	case FIFO:
		s.ififo = rings(n, cfg.VOQCap)
	case OutputBuffered:
		s.obufs = rings(n, cfg.OutBufCap)
	default:
		return nil, fmt.Errorf("simswitch: unknown mode %v", cfg.Mode)
	}
	if cfg.Mode == VOQ && cfg.Speedup > 1 {
		// CIOQ: packets crossing the fabric land in per-output buffers
		// that drain one packet per slot. Unbounded, because with
		// speedup s the buffer can only grow by s−1 per slot and the
		// interesting measurements are delays, not drops.
		s.obufs = rings(n, 0)
	}
	if cfg.Mode == VOQ && cfg.PipelineDepth > 1 {
		s.inflight = make([][]int, n)
		for i := range s.inflight {
			s.inflight[i] = make([]int, n)
		}
	}
	s.res = Result{
		Mode:  cfg.Mode,
		Load:  cfg.Gen.Load(),
		Flows: metrics.NewFlowMatrix(n),
	}
	switch {
	case cfg.Scheduler != nil:
		s.res.SchedulerName = cfg.Scheduler.Name()
	case cfg.Mode == CICQ:
		s.res.SchedulerName = "lcf_cicq"
	default:
		s.res.SchedulerName = "outbuf"
	}
	if cfg.HistogramBuckets > 0 {
		s.res.Hist = metrics.NewHistogram(cfg.HistogramBuckets)
	}
	s.res.Counters.N = n
	s.delayBM = metrics.NewBatchMeans(2000)
	return s, nil
}

// rings returns n packet rings bounded at capLimit (0 = unbounded).
func rings(n, capLimit int) []queue.Ring[*packet.Packet] {
	qs := make([]queue.Ring[*packet.Packet], n)
	for i := range qs {
		qs[i] = queue.NewRing[*packet.Packet](capLimit)
	}
	return qs
}

// Run simulates warmup+measure slots and returns the measurements.
func (s *Sim) Run() (*Result, error) {
	total := s.cfg.WarmupSlots + s.cfg.MeasureSlots
	for t := int64(0); t < total; t++ {
		s.warmed = t >= s.cfg.WarmupSlots
		if err := s.step(); err != nil {
			return nil, fmt.Errorf("slot %d: %w", s.now, err)
		}
		s.now++
	}
	s.res.Counters.Slots = s.cfg.MeasureSlots
	s.res.StillQueued = s.pool.Live()
	s.res.DelayCI95 = s.delayBM.CI95()
	return &s.res, nil
}

// step advances the simulation by one slot.
func (s *Sim) step() error {
	if s.cfg.Trace != nil {
		s.departed = s.departed[:0]
	}

	// 1. Promote PQ heads into the switch-side buffers while space lasts.
	s.promote()

	// 2. Schedule and transfer (input-queued organizations); with fabric
	// speedup the scheduler runs several passes per slot. The CICQ
	// organization has no central schedule — its distributed dispatch
	// and pull arbiters run instead.
	switch s.cfg.Mode {
	case CICQ:
		s.cicqTransfer()
	case OutputBuffered:
	default:
		for pass := 0; pass < s.cfg.Speedup; pass++ {
			if err := s.scheduleAndTransfer(); err != nil {
				return err
			}
		}
	}

	// 3. Drain output buffers: one departure per output per slot
	// (the OutputBuffered organization, and CIOQ when Speedup > 1).
	if s.obufs != nil {
		for j := range s.obufs {
			if p, ok := s.obufs[j].Pop(); ok {
				s.depart(j, p)
			}
		}
	}

	// 4. New arrivals enter the PQs (counted, and dropped if full).
	for in := 0; in < s.cfg.N; in++ {
		dst := s.cfg.Gen.Next(in)
		if dst == traffic.NoPacket {
			continue
		}
		if s.warmed {
			s.res.Counters.Generated++
		}
		p := s.pool.Get(in, dst, s.now)
		if !s.pqs[in].Push(p) {
			if s.warmed {
				s.res.Counters.DroppedPQ++
			}
			s.pool.Put(p)
		}
	}
	s.cfg.Gen.Advance()

	if s.warmed {
		s.res.Flows.Tick()
	}
	s.trackOccupancy()
	return nil
}

// promote moves packets from each PQ into the organization's switch-side
// buffer until the PQ empties or its head is blocked.
func (s *Sim) promote() {
	for in := 0; in < s.cfg.N; in++ {
		pq := &s.pqs[in]
		for {
			head, ok := pq.Peek()
			if !ok {
				break
			}
			var accepted bool
			switch s.cfg.Mode {
			case VOQ:
				accepted = s.core.Enqueue(in, head.Dst, head)
			case CICQ:
				accepted = s.xq.Enqueue(in, head.Dst, head)
			case FIFO:
				accepted = s.ififo[in].Push(head)
			case OutputBuffered:
				accepted = s.obufs[head.Dst].Push(head)
			}
			if !accepted {
				break // head-of-PQ blocked; preserve FIFO order
			}
			head.EnqueuedVOQ = s.now
			pq.Pop()
		}
	}
}

// scheduleAndTransfer builds the request matrix, runs the scheduler, and
// moves the matched packets through the crossbar. The VOQ organization
// runs on the shared switchcore datapath (word-copy request snapshot,
// incrementally maintained occupancy and queue lengths); the FIFO
// organization builds its one-bit-per-row HOL matrix locally.
func (s *Sim) scheduleAndTransfer() error {
	n := s.cfg.N
	var req *bitvec.Matrix
	var computed *matching.Match
	switch s.cfg.Mode {
	case VOQ:
		s.core.SnapshotAll()
		req = s.core.Requests()
		if s.cfg.PipelineDepth > 1 {
			// A pipelined requester knows its own outstanding grants (in
			// Clint the grant packet arrives before the next configuration
			// packet is sent), so it only advertises backlog beyond what
			// the in-flight schedules will already drain.
			for _, m := range s.pipeline {
				for i := 0; i < n; i++ {
					if j := m.InToOut[i]; j != matching.Unmatched {
						s.inflight[i][j]++
					}
				}
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if k := s.inflight[i][j]; k > 0 {
						if s.core.Len(i, j) <= k {
							s.core.ClearRequest(i, j)
						}
						s.inflight[i][j] = 0
					}
				}
			}
		}
		computed = s.core.Schedule(s.cfg.Scheduler)
		if s.cfg.Validate {
			if err := s.core.Validate(); err != nil {
				return fmt.Errorf("scheduler %s produced invalid schedule: %w", s.cfg.Scheduler.Name(), err)
			}
		}
	case FIFO:
		s.req.Reset()
		for i := 0; i < n; i++ {
			if head, ok := s.ififo[i].Peek(); ok {
				s.req.Set(i, head.Dst)
			}
		}
		req = s.req
		ctx := &sched.Context{Req: s.req}
		s.match.Reset()
		s.cfg.Scheduler.Schedule(ctx, s.match)
		computed = s.match
		if s.cfg.Validate {
			if err := matching.Validate(s.match, ctx.Requests()); err != nil {
				return fmt.Errorf("scheduler %s produced invalid schedule: %w", s.cfg.Scheduler.Name(), err)
			}
		}
	}

	// Attribute the decision while the scheduler's Explain state still
	// describes it (the pipeline below ages a clone; attribution for the
	// aged match is long gone).
	if s.cfg.Trace != nil {
		s.grants.FromMatch(computed, s.ex)
	}

	applied := computed
	if s.cfg.PipelineDepth > 1 {
		// Enqueue the fresh schedule; apply the one that has aged through
		// the pipeline, dropping grants whose VOQ has drained since the
		// schedule was computed.
		s.pipeline = append(s.pipeline, computed.Clone())
		if len(s.pipeline) < s.cfg.PipelineDepth {
			if s.cfg.Trace != nil {
				s.cfg.Trace(TraceEvent{Slot: s.now, Requests: req, Match: s.stale, Grants: s.grants, Moved: 0, Departures: s.departed})
			}
			return nil // pipeline still filling: nothing transfers yet
		}
		oldest := s.pipeline[0]
		copy(s.pipeline, s.pipeline[1:])
		s.pipeline = s.pipeline[:len(s.pipeline)-1]
		s.stale.Reset()
		for i := 0; i < n; i++ {
			j := oldest.InToOut[i]
			if j == matching.Unmatched {
				continue
			}
			if s.core.HasBacklog(i, j) {
				s.stale.Pair(i, j)
			} else {
				s.res.WastedGrants++
			}
		}
		applied = s.stale
	}

	deliver := s.depart
	if s.cfg.Speedup > 1 {
		deliver = func(out int, p *packet.Packet) { s.obufs[out].Push(p) }
	}
	moved, err := s.xbar.Transfer(applied, s.pop, deliver)
	if err != nil {
		return err
	}
	if s.cfg.Trace != nil {
		s.cfg.Trace(TraceEvent{
			Slot: s.now, Requests: req, Match: applied, Grants: s.grants, Moved: moved,
			Departures: s.departed,
		})
	}
	return nil
}

// cicqTransfer runs one CICQ slot: every input's dispatch arbiter moves
// its least-choice VOQ head into a crosspoint buffer, then every
// output's pull arbiter drains the least-choice occupied crosspoint.
// There is no central matching and no crossbar configuration — pulled
// packets go straight to depart. Dispatch before pull gives same-slot
// cut-through, so an uncontended packet still sees a 1-slot latency
// exactly like the centralized organizations.
func (s *Sim) cicqTransfer() {
	for i := 0; i < s.cfg.N; i++ {
		s.xq.SnapshotRow(i)
	}
	grants := s.xq.Arbitrate(nil)
	moved := 0
	for j := 0; j < s.cfg.N; j++ {
		p, ok := s.xq.Take(j)
		if !ok {
			continue
		}
		moved++
		s.depart(j, p)
	}
	if s.cfg.Trace != nil {
		s.cfg.Trace(TraceEvent{Slot: s.now, Grants: grants, Moved: moved, Departures: s.departed})
	}
}

// pop is the crossbar's input-side callback.
func (s *Sim) pop(in, out int) *packet.Packet {
	switch s.cfg.Mode {
	case VOQ:
		p, _ := s.core.Dequeue(in, out)
		return p
	case FIFO:
		head, ok := s.ififo[in].Peek()
		if !ok || head.Dst != out {
			return nil
		}
		s.ififo[in].Pop()
		return head
	}
	return nil
}

// depart finalizes a packet's life: timestamping, measurement, recycling.
// Throughput and per-flow service count every departure inside the
// measurement window (steady-state rates); the delay statistics cover only
// packets generated after warmup, so the transient does not bias them.
func (s *Sim) depart(out int, p *packet.Packet) {
	p.Departed = s.now
	if s.cfg.Trace != nil {
		s.departed = append(s.departed, DepartInfo{
			ID: p.ID, Src: p.Src, Dst: p.Dst, Generated: p.Generated, Departed: p.Departed,
		})
	}
	if s.warmed {
		s.res.Counters.Forwarded++
		s.res.Flows.Record(p.Src, out)
		if int64(p.Generated) >= s.cfg.WarmupSlots {
			d := p.QueueingDelay()
			s.res.Delay.Add(float64(d))
			s.delayBM.Add(float64(d))
			if s.res.Hist != nil {
				s.res.Hist.Add(d)
			}
		}
	}
	s.pool.Put(p)
}

// trackOccupancy records the largest switch-side queue seen, plus the
// choice/leveling statistics of the VOQ organization.
func (s *Sim) trackOccupancy() {
	max := s.res.MaxVOQLen
	switch s.cfg.Mode {
	case VOQ:
		occupied := 0
		var sum, sumSq float64
		for i := 0; i < s.cfg.N; i++ {
			for _, l := range s.core.LenRow(i) {
				if l > max {
					max = l
				}
				if l > 0 {
					occupied++
				}
				fl := float64(l)
				sum += fl
				sumSq += fl * fl
			}
		}
		if s.warmed {
			nq := float64(s.cfg.N * s.cfg.N)
			s.res.Choice.Add(float64(occupied) / float64(s.cfg.N))
			mean := sum / nq
			variance := sumSq/nq - mean*mean
			if variance < 0 {
				variance = 0
			}
			s.res.VOQSpread.Add(math.Sqrt(variance))
		}
	case CICQ:
		occupied := 0
		for i := 0; i < s.cfg.N; i++ {
			for j := 0; j < s.cfg.N; j++ {
				l := s.xq.Len(i, j)
				if l > max {
					max = l
				}
				if l > 0 {
					occupied++
				}
			}
		}
		if s.warmed {
			s.res.Choice.Add(float64(occupied) / float64(s.cfg.N))
		}
	case FIFO:
		for i := range s.ififo {
			if l := s.ififo[i].Len(); l > max {
				max = l
			}
		}
	case OutputBuffered:
		for j := range s.obufs {
			if l := s.obufs[j].Len(); l > max {
				max = l
			}
		}
	}
	s.res.MaxVOQLen = max
}

// Step advances the simulation by one slot outside Run — the hook
// internal/chaos uses to interleave fault transitions with slots. Slots
// stepped this way are always measured (no warmup window), so the
// conservation identity Generated == Forwarded + DroppedPQ + Live holds
// from the first slot.
func (s *Sim) Step() error {
	s.warmed = true
	if err := s.step(); err != nil {
		return err
	}
	s.now++
	s.res.Counters.Slots++
	return nil
}

// CountersNow returns the current cumulative counters, for callers
// driving the simulation slot by slot via Step.
func (s *Sim) CountersNow() metrics.Counters { return s.res.Counters }

// Live returns the number of packets currently resident in any queue
// (PQ, VOQ, or output buffer) — the "resident" term of the conservation
// identity.
func (s *Sim) Live() int { return s.pool.Live() }

// Slot returns the current slot number.
func (s *Sim) Slot() int64 { return int64(s.now) }

// faultPorts is the port-fault surface shared by the VOQ and CICQ
// datapaths.
type faultPorts interface {
	SetInputDown(i int, down bool)
	SetOutputDown(j int, down bool)
}

// faultCore rejects fault injection outside the VOQ and CICQ
// organizations: the FIFO and output-buffered switches have no request
// state to mask.
func (s *Sim) faultCore() (faultPorts, error) {
	switch {
	case s.cfg.Mode == VOQ && s.core != nil:
		return s.core, nil
	case s.cfg.Mode == CICQ && s.xq != nil:
		return s.xq, nil
	}
	return nil, fmt.Errorf("simswitch: fault injection supported on the VOQ and CICQ organizations only (mode %v)", s.cfg.Mode)
}

// FailInput marks input i's link down: its row vanishes from the request
// matrix at the next schedule, stranding its queued packets in place
// until recovery (the simulator has no drop policy — it is the offline
// twin of runtime.HoldStranded). Single-threaded like everything on Sim.
func (s *Sim) FailInput(i int) error {
	c, err := s.faultCore()
	if err != nil {
		return err
	}
	c.SetInputDown(i, true)
	return nil
}

// FailOutput marks output j's link down; its column vanishes from the
// request matrix at the next schedule.
func (s *Sim) FailOutput(j int) error {
	c, err := s.faultCore()
	if err != nil {
		return err
	}
	c.SetOutputDown(j, true)
	return nil
}

// RecoverInput restores input i's link; held packets are advertised
// again at the very next schedule.
func (s *Sim) RecoverInput(i int) error {
	c, err := s.faultCore()
	if err != nil {
		return err
	}
	c.SetInputDown(i, false)
	return nil
}

// RecoverOutput restores output j's link.
func (s *Sim) RecoverOutput(j int) error {
	c, err := s.faultCore()
	if err != nil {
		return err
	}
	c.SetOutputDown(j, false)
	return nil
}

// Run is the package-level convenience: build and run in one call.
func Run(cfg Config) (*Result, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}
