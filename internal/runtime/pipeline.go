package runtime

import (
	goruntime "runtime"
	"time"

	"repro/internal/matching"
	"repro/internal/sched"
)

// This file holds the engine's pipelined-arbitration mode (Config.Pipeline)
// and the shard worker pool (Config.Shards). Both exist to take work off
// the slot's critical path: the pipeline moves the scheduler's compute into
// the previous slot's transmit window (the paper's Clint overlap of
// schedule and transfer), and the pool spreads the word-parallel
// snapshot/dispatch row sweeps across cores at large n. The mechanism and
// the invariants are laid out in DESIGN.md §13.
//
// The pipelined slot runs:
//
//	join worker → fold faults → validate + dispatch the pending matching
//	→ repair the reported decision → emit/observe → snapshot → kick worker
//
// so the grants dispatched in slot t were computed during slot t-1 from
// slot t-1's post-dispatch snapshot. Validation is the dispatch itself:
// every leg that can go stale (link failed, VOQ flushed, channel filled)
// already exists on the inline dispatch path as a defensive branch, and in
// pipelined mode those branches become the speculation misses. A missed
// grant's frames were never popped, so conservation cannot break — the
// backlog survives in its VOQ and the next snapshot re-advertises it
// (a repair). Mis-speculation costs a slot of service, never a frame.

// specState is the pipelined-arbitration state: the compute worker's
// channels, the pending matching handoff, and the validation scratch. All
// fields except the channels are confined to the arbiter goroutine; grants
// is written by the worker and read by the arbiter, ordered by the done
// channel.
type specState struct {
	on   bool
	have bool // a pending matching awaits validation and dispatch

	// requested is the request-bit count of the snapshot behind the
	// pending matching — reported one slot later, alongside the grants it
	// produced, so Requested and Matched stay paired per decision.
	requested int
	// grants is the worker's Arbitrate result (datapath scratch, stable
	// until the next Arbitrate). missed flags the outputs whose grants
	// failed validation, for the post-dispatch repair pass.
	grants *sched.GrantSet
	missed []bool
	// empty is reported on slot 0, before any matching exists: OnSlot
	// consumers (the chaos harness) expect a non-nil GrantSet.
	empty *sched.GrantSet

	kick     chan struct{}
	done     chan struct{}
	quit     chan struct{}
	running  bool // worker goroutine launched (arbiter-only)
	inflight bool // a kicked Arbitrate has not been joined (arbiter-only)
}

func (s *specState) init(n int, on bool) {
	s.on = on
	if !on {
		return
	}
	s.missed = make([]bool, n)
	s.empty = sched.NewGrantSet(n)
	// Buffered so neither side ever blocks on a peer that has signalled
	// but not yet looped back into its select.
	s.kick = make(chan struct{}, 1)
	s.done = make(chan struct{}, 1)
	s.quit = make(chan struct{})
}

// join waits for the in-flight speculative Arbitrate, if any. After join
// the datapath's slot scratch — the snapshot, the matching, the grants —
// belongs to the arbiter again.
func (s *specState) join() {
	if s.inflight {
		<-s.done
		s.inflight = false
	}
}

// stop joins any in-flight compute and releases the worker goroutine.
// Arbiter-only, called from drain.
func (s *specState) stop() {
	s.join()
	if s.running {
		close(s.quit)
		s.running = false
	}
}

// kickSpec hands the freshly snapshotted request matrix to the compute
// worker, lazily launching it on first use. From here until the next
// join, the datapath's slot scratch belongs to the worker.
func (e *Engine) kickSpec() {
	if !e.spec.running {
		e.spec.running = true
		go e.specWorker()
	}
	e.spec.inflight = true
	e.spec.kick <- struct{}{}
}

// specWorker computes matchings off the slot clock. It touches only the
// datapath's snapshot scratch (the PipelineSafe contract), never the live
// VOQs, the metrics, or the tracer — the tracer's ring is single-writer
// and that writer is the arbiter.
func (e *Engine) specWorker() {
	for {
		select {
		case <-e.spec.quit:
			return
		case <-e.spec.kick:
			e.spec.grants = e.dp.Arbitrate(e.cfg.Scheduler)
			e.spec.done <- struct{}{}
		}
	}
}

// repairMissed removes the grants that failed validation from the slot's
// reported decision: the dispatched match must be what OnSlot, the trace
// ring and MatchSize describe, or a grant-isolation audit (chaos) would
// see a "connection" to a failed port that never carried a frame. Safe to
// mutate both structures here: every scheduler Resets the match at the
// top of Schedule and FromMatch rewrites every grant, so the next
// Arbitrate never sees the cleared entries. Runs on the arbiter after the
// (possibly sharded) dispatch — the shards only set disjoint missed
// flags, keeping the match mutation single-threaded.
func (e *Engine) repairMissed(g *sched.GrantSet) {
	m := e.dp.Match()
	for j := range e.spec.missed {
		if !e.spec.missed[j] {
			continue
		}
		e.spec.missed[j] = false
		i := g.Src[j]
		g.Src[j] = matching.Unmatched
		g.Rule[j] = sched.RuleUnattributed
		g.Choices[j] = -1
		if m != nil && i != matching.Unmatched {
			if m.OutToIn[j] == i {
				m.OutToIn[j] = matching.Unmatched
			}
			if i < len(m.InToOut) && m.InToOut[i] == j {
				m.InToOut[i] = matching.Unmatched
			}
		}
	}
}

// tickPipelined is one slot of the pipelined arbiter: dispatch the
// matching speculated during the previous slot, then snapshot and kick
// the next one to compute during this slot's transmit window.
//
// SlotLatency here measures the slot's critical path — validation,
// dispatch, snapshot — and excludes the scheduler compute that now
// overlaps transmit; comparing it against the inline mode's SlotLatency
// is exactly the overlap the mode buys (EXPERIMENTS.md E30).
func (e *Engine) tickPipelined() {
	start := time.Now()
	now := e.slot.Load()

	// Reclaim the slot scratch from the compute worker before anything
	// below (fault folding, the stranded sweep, dispatch) touches the
	// datapath.
	e.spec.join()

	e.applyFaults(now)
	e.sweepStranded()

	// Validate and dispatch the pending matching. The grants are one slot
	// old: dispatchRange re-checks link state, VOQ occupancy and channel
	// room per grant, and flags what went stale. On slot 0 there is no
	// pending matching and the slot only primes the pipeline.
	grants := e.spec.empty
	requested := 0
	var matched, hits, misses, repairs int
	if e.spec.have {
		grants = e.spec.grants
		requested = e.spec.requested
		matched, hits, misses, repairs = e.dispatchAll(grants, now, true)
		if misses > 0 {
			e.repairMissed(grants)
		}
	}

	e.met.Requested.Add(int64(requested))
	e.met.Matched.Add(int64(matched))
	if hits > 0 {
		e.met.SpecHits.Add(int64(hits))
	}
	if misses > 0 {
		e.met.SpecMisses.Add(int64(misses))
		e.met.SpecRepairs.Add(int64(repairs))
	}
	e.met.MatchSize.Observe(float64(grants.Size()))

	// Trace the validated decision. Must happen before kickSpec: the
	// worker's next Arbitrate overwrites the match this emit reads.
	e.dp.EmitSlotTrace(e.cfg.Tracer, now, requested)
	if misses > 0 {
		e.cfg.Tracer.EmitSpec(now, hits, misses, repairs)
	}

	if e.cfg.OnSlot != nil {
		e.cfg.OnSlot(SlotEvent{
			Slot: now, Match: e.dp.Match(), Grants: grants,
			Requested: requested, Matched: matched,
			SpecHits: hits, SpecMisses: misses, SpecRepairs: repairs,
		})
	}

	// Top up the VOQ heads from the class tier's PIFOs (no-op without
	// classes) after this slot's dispatch and before the snapshot, so the
	// matching computed during the next transmit window sees the freshly
	// ranked heads.
	e.classFill()

	// Snapshot for the next slot's matching, after this slot's dispatch:
	// the channel-room mask is computed post-send, and consumers only
	// drain, so a grant computed against this mask still has room when it
	// dispatches next slot — the channel-full miss leg is defensive, not
	// load-bearing. Everything admitted before this point is visible to
	// the snapshot, so pipelining adds exactly one slot of decision
	// latency and zero slots of admission latency.
	e.maskFullOutputs()
	req, masked, faulted := e.snapshotAll()
	e.recordSnapshot(req, masked, faulted)
	e.spec.requested = req
	e.spec.have = true
	e.kickSpec()

	e.met.SlotLatency.Observe(float64(time.Since(start).Nanoseconds()))
	e.slot.Add(1)
}

// Shard pool ------------------------------------------------------------

// autoShardMinN is the width below which automatic sharding stays off:
// the word-parallel bitvec kernels sweep a sub-256-port row faster than a
// channel handoff round-trips.
const autoShardMinN = 256

// maxAutoShards caps the automatic pool size; beyond ~8 workers the
// per-slot barrier costs outgrow the row-sweep savings.
const maxAutoShards = 8

const (
	phaseSnapshot = iota
	phaseDispatch
)

// shardResult is one shard's contribution to a phase, merged by the
// arbiter after the barrier. Shards never touch each other's slot.
type shardResult struct {
	requested, masked, faulted     int
	matched, hits, misses, repairs int
}

// shardPool fans the per-slot row sweeps — snapshot (inputs) and dispatch
// (outputs) — across a fixed set of workers, each owning a static
// contiguous range. Safety rests on range disjointness: snapshot shards
// take disjoint input locks, and a valid grant set is a permutation, so
// dispatch shards take disjoint input locks too and each is the sole
// sender on its outputs' channels. The phase descriptor fields are
// written by the arbiter before the job sends and the results read after
// the done receives; the channels order both.
type shardPool struct {
	e      *Engine
	shards int      // 0 when the pool is disabled
	ranges [][2]int // per-shard [lo,hi) row range
	res    []shardResult

	// Phase descriptor (arbiter-written, worker-read; see above).
	phase  int
	now    int64
	spec   bool
	grants *sched.GrantSet

	jobs    chan int
	done    chan struct{}
	quit    chan struct{}
	running bool // workers launched (arbiter-only)
}

func (p *shardPool) init(e *Engine, shards int) {
	p.e = e
	k := 0
	switch {
	case shards == 1:
		return // explicitly disabled
	case shards == 0:
		if e.n < autoShardMinN || !e.dp.PipelineSafe() {
			return // too narrow to pay off, or rows are not disjoint (CICQ)
		}
		k = goruntime.GOMAXPROCS(0)
		if k > maxAutoShards {
			k = maxAutoShards
		}
	default:
		k = shards // forced: tests exercise the pool at small n
	}
	if k > e.n {
		k = e.n
	}
	if k < 2 {
		return
	}
	p.shards = k
	p.ranges = make([][2]int, k)
	for s := 0; s < k; s++ {
		p.ranges[s] = [2]int{s * e.n / k, (s + 1) * e.n / k}
	}
	p.res = make([]shardResult, k)
	p.jobs = make(chan int, k)
	p.done = make(chan struct{}, k)
	p.quit = make(chan struct{})
}

// engaged reports whether the per-slot phases run on the pool.
func (p *shardPool) engaged() bool { return p.shards > 0 }

// stop releases the workers. Arbiter-only, called from drain; every job
// has been joined by then (run barriers on done).
func (p *shardPool) stop() {
	if p.running {
		close(p.quit)
		p.running = false
	}
}

// run executes the current phase across all shards and barriers on their
// completion, lazily launching the workers on first use.
func (p *shardPool) run() {
	if !p.running {
		p.running = true
		for w := 0; w < p.shards; w++ {
			go p.worker()
		}
	}
	for s := 0; s < p.shards; s++ {
		p.jobs <- s
	}
	for s := 0; s < p.shards; s++ {
		<-p.done
	}
}

func (p *shardPool) worker() {
	for {
		select {
		case <-p.quit:
			return
		case s := <-p.jobs:
			lo, hi := p.ranges[s][0], p.ranges[s][1]
			r := &p.res[s]
			switch p.phase {
			case phaseSnapshot:
				r.requested, r.masked, r.faulted = p.e.snapshotRows(lo, hi)
			case phaseDispatch:
				r.matched, r.hits, r.misses, r.repairs = p.e.dispatchRange(p.grants, lo, hi, p.now, p.spec)
			}
			p.done <- struct{}{}
		}
	}
}

// snapshot runs the snapshot phase sharded and merges the counts.
func (p *shardPool) snapshot() (requested, masked, faulted int) {
	p.phase = phaseSnapshot
	p.run()
	for s := range p.res {
		requested += p.res[s].requested
		masked += p.res[s].masked
		faulted += p.res[s].faulted
	}
	return requested, masked, faulted
}

// dispatch runs the dispatch phase sharded and merges the counts.
func (p *shardPool) dispatch(g *sched.GrantSet, now int64, spec bool) (matched, hits, misses, repairs int) {
	p.phase = phaseDispatch
	p.grants = g
	p.now = now
	p.spec = spec
	p.run()
	for s := range p.res {
		matched += p.res[s].matched
		hits += p.res[s].hits
		misses += p.res[s].misses
		repairs += p.res[s].repairs
	}
	return matched, hits, misses, repairs
}
