// Package flowtable is the switch's flow-aware front tier: a sharded,
// power-of-two-sized consistent-hash bucket table mapping 64-bit flow
// identifiers onto the switch's n input ports, so millions of concurrent
// client flows can share a port-granular device (the paper's arbiter
// assumes one client per input; real front ends multiplex).
//
// The design is the classic load-balancer bucket table (SimLB's
// LSQ/SED/po2 policies are the exemplar; "Node Weighted Scheduling",
// arXiv:0902.1169, is the theory — backlog-weighted decisions preserve
// throughput-optimality, and local decisions scale where central state
// does not):
//
//   - Consistent bucketing: a flow id hashes to one bucket; the bucket
//     records the port the flow was steered to, so every later frame of
//     the flow lands on the same port (sticky assignment — what keeps
//     per-flow frame order intact across the VOQ fabric).
//   - Pluggable steering: the port for a NEW flow is chosen by a policy
//     (pure consistent hash, least-backlogged scan, or power-of-two
//     choices between two hash candidates) reading the live per-port
//     VOQ backlog gauges the runtime engine already maintains.
//   - Epoch eviction: an epoch counter advances on a coarse clock;
//     buckets untouched for a configurable number of epochs are evicted
//     by an explicit sweep, bounding residency without any per-frame
//     timestamping. Eviction only forgets steering state — frames
//     already admitted into VOQs are untouched, so eviction can never
//     strand or lose an in-flight frame.
//
// The hot path (Steer: lookup-or-admit) is lock-striped: the table is
// split into power-of-two shards addressed by hash bits, each an
// open-addressed linear-probe array under its own mutex, so concurrent
// admissions on different shards never contend and a lookup touches one
// lock plus (usually) one cache line. A shard's array holds only the
// buckets its resident flows need: it starts at 16 buckets and doubles
// when an admission would pass ½ load or the probe bound, up to the size
// Capacity calls for. At steady residency Steer allocates nothing; the
// benchmarks pin 0 allocs/op at 10^6 resident flows
// (results/bench_pr9.json, results/bench_pr45.json).
package flowtable

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

// PortView is the live per-port state a steering policy reads: how many
// ports exist, each port's current VOQ backlog, and whether its input
// link is up (fault masks must be respected — a policy never steers a
// new flow at a failed port). Implementations must be safe for
// concurrent use from any goroutine; the runtime engine backs this with
// lock-free atomics.
type PortView interface {
	// N returns the port count.
	N() int
	// Backlog returns port p's resident frame count (its VOQ backlog).
	Backlog(p int) int64
	// Up reports whether port p's input link is currently up.
	Up(p int) bool
}

// RehomePolicy selects what Steer does when an existing flow's assigned
// port is down.
type RehomePolicy int

const (
	// KeepOnDown keeps the sticky assignment: the flow stays mapped to
	// its (currently failed) port, admissions bounce with ErrPortDown,
	// and service resumes on the same port at recovery. Pair with the
	// engine's HoldStranded fault policy, where queued frames survive
	// the outage: moving the flow would reorder it around its own held
	// frames.
	KeepOnDown RehomePolicy = iota
	// RehomeOnDown re-steers the flow to a live port (counting a
	// rebalance) the first time it is seen while its port is down. Pair
	// with DropStranded, where a failed port's frames are flushed —
	// there is no held backlog to reorder around, so moving the flow
	// restores service immediately.
	RehomeOnDown
)

func (p RehomePolicy) String() string {
	switch p {
	case KeepOnDown:
		return "keep"
	case RehomeOnDown:
		return "rehome"
	default:
		return fmt.Sprintf("RehomePolicy(%d)", int(p))
	}
}

// Config parameterizes a Table.
type Config struct {
	// Ports is the live port state policies steer by. Required.
	Ports PortView
	// Capacity is the expected concurrent (resident) flow population.
	// It sets each shard's full size: the next power of two that keeps
	// the load factor at or below ½ at Capacity flows (minimum 16
	// buckets per shard). Shards start at 16 buckets and grow toward
	// that size as flows arrive; only a shard at full size refuses an
	// admission. Required, > 0.
	Capacity int
	// Shards is the number of lock stripes, rounded up to a power of
	// two. 0 defaults to 64 — enough that admission goroutines rarely
	// collide, few enough that the per-shard fixed cost is negligible.
	Shards int
	// Policy names the steering policy for new flows (see Names):
	// "hash", "least" or "po2". "" defaults to "hash".
	Policy string
	// Rehome selects the disposition of flows whose assigned port is
	// down (see RehomePolicy).
	Rehome RehomePolicy
	// Seed perturbs the flow-id hash so distinct tables (or restarts)
	// spread identical flow populations differently.
	Seed uint64
	// MaxProbe bounds the linear probe before Steer gives up with
	// ErrTableFull. 0 defaults to 128: with the ≤½ load factor the
	// expected probe is ~1.5 slots, so a 128-slot cluster means the
	// shard is pathologically full and refusing is better than
	// crawling.
	MaxProbe int
}

// Steering and capacity errors.
var (
	// ErrTableFull reports that the flow's shard has no room (resident
	// population over capacity, or a probe cluster exceeded MaxProbe).
	// The caller should refuse the frame the way a full VOQ is refused:
	// surface backpressure, never silently drop.
	ErrTableFull = fmt.Errorf("flowtable: table full")
)

// entry is one 24-byte bucket: a resident flow's id, the port it is
// steered to (-1 marks an empty bucket), the epoch it was last touched,
// and its cumulative service counter (frames steered — the quantity the
// Jain/min-share fairness analysis runs over). The hash is not cached:
// only backward-shift deletion and growth need a resident flow's home
// bucket, and they recompute it from the id.
type entry struct {
	id     uint64
	port   int32
	epoch  uint32
	served uint64
}

const emptyPort = int32(-1)

// shard is one lock stripe: an open-addressed linear-probe bucket
// array whose length is a power of two, grown under mu. The per-shard
// counters (plain fields under mu, folded on scrape) keep the Steer hot
// path free of shared atomic read-modify-writes — with table-level
// atomics every goroutine would bounce the same counter cache line on
// every call.
type shard struct {
	mu       sync.Mutex
	ents     []entry
	used     int
	steered  uint64 // Steer calls that resolved a port (hit or insert)
	inserted uint64 // new flows admitted (steering decisions made)
	evicted  uint64 // flows removed (idle sweeps + explicit Evict)
	_        uint64 // pad to keep neighbouring shard locks off one cache line
}

// Stats is a snapshot of the table's counters, folded across shards by
// the Stats method.
//
// Invariant: Resident == Inserted - Evicted, per shard, at every
// instant. All three counters mutate only under the shard's lock, in
// the same critical section as the bucket write they describe (Steer's
// insert does used++ and inserted++ together; every deletion does
// used-- and evicted++ together), so a Stats fold — which takes each
// shard lock in turn — can never observe a shard where they disagree.
// The cross-shard totals may mix locked snapshots taken at slightly
// different times, but since the identity holds in each addend it holds
// in the sum.
type Stats struct {
	Resident   int64 // flows currently in the table
	Steered    int64 // Steer calls that resolved a port (hit or insert)
	Inserted   int64 // new flows admitted (steering decisions made)
	Evicted    int64 // flows removed by eviction (idle sweeps + explicit)
	Rebalanced int64 // existing flows re-steered off a down port
	Rejected   int64 // Steer calls refused with ErrTableFull
	Buckets    int64 // buckets allocated across shards (at least 2·Resident)
}

// Table is the flow-steering table. Construct with New; all methods are
// safe for concurrent use.
type Table struct {
	cfg       Config
	policy    Policy
	ports     PortView
	shards    []shard
	shardMask uint64
	full      int // buckets per shard at full size (Caps)
	shardBits uint
	seed      uint64
	maxProbe  int
	epoch     atomic.Uint32
	// Rare-path counters (fault rebalances, full-table rejections) stay
	// table-level atomics: they never fire on the steady-state hit path,
	// so sharing a line costs nothing. Eviction counts live per shard —
	// see the Stats invariant.
	rebalanced atomic.Int64
	rejected   atomic.Int64
}

// New builds a table whose shards start at 16 buckets each. A shard
// grows by doubling, up to the full size: the next power of two holding
// its share of Capacity at a load factor of at most ½.
func New(cfg Config) (*Table, error) {
	if cfg.Ports == nil {
		return nil, fmt.Errorf("flowtable: nil PortView")
	}
	if cfg.Ports.N() <= 0 {
		return nil, fmt.Errorf("flowtable: port view reports %d ports", cfg.Ports.N())
	}
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("flowtable: capacity %d", cfg.Capacity)
	}
	if cfg.Shards == 0 {
		cfg.Shards = 64
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("flowtable: negative shard count %d", cfg.Shards)
	}
	if cfg.MaxProbe == 0 {
		cfg.MaxProbe = 128
	}
	if cfg.MaxProbe < 0 {
		return nil, fmt.Errorf("flowtable: negative probe bound %d", cfg.MaxProbe)
	}
	pol, err := NewPolicy(cfg.Policy)
	if err != nil {
		return nil, err
	}
	nshards := 1 << uint(bits.Len(uint(cfg.Shards-1)))
	// Full size: next power of two ≥ 2×Capacity, spread over the
	// shards, with a minBuckets floor per shard.
	full := nextPow2(2*cfg.Capacity/nshards + 1)
	if full < minBuckets {
		full = minBuckets
	}
	t := &Table{
		cfg:       cfg,
		policy:    pol,
		ports:     cfg.Ports,
		shards:    make([]shard, nshards),
		shardMask: uint64(nshards - 1),
		full:      full,
		shardBits: uint(bits.Len(uint(nshards - 1))),
		seed:      cfg.Seed,
		maxProbe:  cfg.MaxProbe,
	}
	for s := range t.shards {
		t.shards[s].ents = emptyBuckets(minBuckets)
	}
	return t, nil
}

// minBuckets is a shard's starting size and the floor of its full size.
const minBuckets = 16

func emptyBuckets(n int) []entry {
	ents := make([]entry, n)
	for i := range ents {
		ents[i].port = emptyPort
	}
	return ents
}

func nextPow2(v int) int {
	if v <= 1 {
		return 1
	}
	return 1 << uint(bits.Len(uint(v-1)))
}

// mix is the SplitMix64 finalizer — a full-avalanche 64-bit mixer, so
// adjacent flow ids land in unrelated buckets and the policy's candidate
// ports are independent of the bucket index.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (t *Table) hash(id uint64) uint64 { return mix(id ^ t.seed) }

// home returns the bucket index bits of id's hash, before masking to a
// shard's current size.
func (t *Table) home(id uint64) uint64 { return t.hash(id) >> t.shardBits }

// Caps returns the table's full-size geometry: shard count and the
// buckets per shard at which a shard stops growing and starts refusing
// (Stats.Buckets is what is allocated now).
func (t *Table) Caps() (shards, bucketsPerShard int) {
	return len(t.shards), t.full
}

// PolicyName returns the steering policy's registered name.
func (t *Table) PolicyName() string { return t.policy.Name() }

// Stats folds the per-shard counters into one snapshot. It takes each
// shard lock briefly in turn — a scrape path, not a hot path.
func (t *Table) Stats() Stats {
	st := Stats{
		Rebalanced: t.rebalanced.Load(),
		Rejected:   t.rejected.Load(),
	}
	for si := range t.shards {
		s := &t.shards[si]
		s.mu.Lock()
		st.Resident += int64(s.used)
		st.Steered += int64(s.steered)
		st.Inserted += int64(s.inserted)
		st.Evicted += int64(s.evicted)
		st.Buckets += int64(len(s.ents))
		s.mu.Unlock()
	}
	return st
}

// Resident returns the current resident-flow count (see Stats).
func (t *Table) Resident() int64 {
	var n int64
	for si := range t.shards {
		s := &t.shards[si]
		s.mu.Lock()
		n += int64(s.used)
		s.mu.Unlock()
	}
	return n
}

// Epoch returns the current eviction epoch.
func (t *Table) Epoch() uint32 { return t.epoch.Load() }

// Disposition of one Steer call, reported so callers (trace emission,
// tests) can tell a sticky hit from a fresh steering decision.
type Disposition int

const (
	// Sticky: the flow was resident; its existing assignment was used.
	Sticky Disposition = iota
	// Admitted: the flow was new; the policy chose its port.
	Admitted
	// Rebalanced: the flow was resident but its port was down and the
	// table's RehomeOnDown policy moved it to a live port.
	Rebalanced
)

func (d Disposition) String() string {
	switch d {
	case Sticky:
		return "sticky"
	case Admitted:
		return "new"
	case Rebalanced:
		return "rebalanced"
	default:
		return fmt.Sprintf("Disposition(%d)", int(d))
	}
}

// Steer resolves the input port for one frame of flow id, admitting the
// flow if it is not resident. It is the hot path: one shard lock and a
// short linear probe. The flow's service counter and epoch are
// refreshed on every call. It allocates only when an admission grows
// the flow's shard, so never at steady residency.
//
// The error is ErrTableFull when the flow is new and its shard, at full
// size, has no room: it is at ½ load, or the flow's probe would reach
// MaxProbe. The port return is then -1 and the caller should
// backpressure the frame.
func (t *Table) Steer(id uint64) (port int, disp Disposition, err error) {
	h := t.hash(id)
	s := &t.shards[h&t.shardMask]
	epoch := t.epoch.Load()

	s.mu.Lock()
	mask := uint64(len(s.ents) - 1)
	for i, dist := (h>>t.shardBits)&mask, 0; ; i, dist = (i+1)&mask, dist+1 {
		e := &s.ents[i]
		if e.port == emptyPort {
			return t.admit(s, id, h, i, dist, epoch)
		}
		if e.id == id {
			// Hit: sticky assignment, unless the port is down and the
			// table rehomes.
			p := int(e.port)
			disp = Sticky
			if t.cfg.Rehome == RehomeOnDown && !t.ports.Up(p) {
				p = t.policy.Pick(h, t.ports)
				e.port = int32(p)
				disp = Rebalanced
			}
			e.epoch = epoch
			e.served++
			s.steered++
			s.mu.Unlock()
			if disp == Rebalanced {
				t.rebalanced.Add(1)
			}
			return p, disp, nil
		}
	}
}

// admit is Steer's miss path for new flow id with hash h, whose probe
// ended at empty bucket i, dist buckets from its home. The room check is
// ½ of the shard, matching the sizing contract, and the probe bound; a
// shard below full size grows instead of refusing. It is a separate
// function so that Steer's hit loop stays small: with the growth loop
// inlined into Steer, a resident-flow lookup at 10^6 flows ran 2.4×
// slower. Caller holds s.mu; admit releases it.
func (t *Table) admit(s *shard, id, h, i uint64, dist int, epoch uint32) (int, Disposition, error) {
	for (s.used >= len(s.ents)/2 || dist >= t.maxProbe) && len(s.ents) < t.full {
		s.grow(t)
		i, dist, _ = s.find(id, h>>t.shardBits)
	}
	if s.used >= len(s.ents)/2 || dist >= t.maxProbe {
		s.mu.Unlock()
		t.rejected.Add(1)
		return -1, Admitted, ErrTableFull
	}
	p := t.policy.Pick(h, t.ports)
	s.ents[i] = entry{id: id, port: int32(p), epoch: epoch, served: 1}
	s.used++
	s.inserted++
	s.steered++
	s.mu.Unlock()
	return p, Admitted, nil
}

// find probes for id from its home bits: it returns the bucket holding
// id (hit), or else the first empty bucket of the probe and its distance
// from the home bucket. A shard is never more than half full, so the
// probe always ends. Caller holds s.mu.
func (s *shard) find(id, home uint64) (i uint64, dist int, hit bool) {
	mask := uint64(len(s.ents) - 1)
	for i = home & mask; ; i = (i + 1) & mask {
		e := &s.ents[i]
		if e.port == emptyPort {
			return i, dist, false
		}
		if e.id == id {
			return i, dist, true
		}
		dist++
	}
}

// grow doubles the shard's bucket array and reinserts every resident
// flow. Which buckets a linear-probe table occupies depends only on the
// set of keys it holds, and a bucket occupied at the larger size is
// occupied, at the same index modulo the smaller size, at every smaller
// one. So a flow's first empty bucket is never nearer its home at a
// smaller size: an admission that fits before growing fits at full size
// too, and one refused below full size is retried after growing.
// Refusals happen exactly where a table built at full size would
// refuse. Caller holds s.mu.
func (s *shard) grow(t *Table) {
	old := s.ents
	s.ents = emptyBuckets(2 * len(old))
	for k := range old {
		if old[k].port == emptyPort {
			continue
		}
		i, _, _ := s.find(old[k].id, t.home(old[k].id))
		s.ents[i] = old[k]
	}
}

// Lookup returns the resident flow's port and served count without
// admitting or touching it, and ok=false for a non-resident flow.
func (t *Table) Lookup(id uint64) (port int, served uint64, ok bool) {
	h := t.hash(id)
	s := &t.shards[h&t.shardMask]
	s.mu.Lock()
	defer s.mu.Unlock()
	i, _, hit := s.find(id, h>>t.shardBits)
	if !hit {
		return -1, 0, false
	}
	return int(s.ents[i].port), s.ents[i].served, true
}

// AdvanceEpoch bumps the eviction epoch. Call it on a coarse clock (the
// daemon defaults to one second); flows whose last Steer is more than
// maxIdle epochs behind become eligible for EvictIdle.
func (t *Table) AdvanceEpoch() uint32 { return t.epoch.Add(1) }

// EvictIdle removes every flow idle for more than maxIdle epochs and
// returns how many were evicted. It sweeps shard by shard (one shard
// lock at a time, so admissions on other shards proceed) using
// backward-shift deletion, which keeps probe chains minimal without
// tombstones. Eviction forgets steering state only: frames the flow
// already has queued in VOQs are untouched, so conservation is
// unaffected — a re-appearing flow is simply re-steered as new.
func (t *Table) EvictIdle(maxIdle uint32) int {
	now := t.epoch.Load()
	total := 0
	for si := range t.shards {
		s := &t.shards[si]
		s.mu.Lock()
		for i := 0; i < len(s.ents); {
			e := &s.ents[i]
			if e.port == emptyPort {
				i++
				continue
			}
			// now was loaded once, before the sweep, but entries keep
			// being stamped by concurrent Steers that read the live
			// epoch. If AdvanceEpoch fires mid-sweep, a flow admitted
			// after it carries e.epoch == now+1, and the unsigned age
			// now-e.epoch wraps to ~2^32 — the freshest flow in the
			// table reads as the stalest and is evicted on the spot.
			// An entry stamped "ahead" of the sweep's view is by
			// definition freshly touched; treat its age as zero. The
			// half-range test distinguishes genuine wrap-ahead (a few
			// epochs, from the race) from a genuinely ancient entry:
			// real idle ages are bounded by table lifetime in epochs,
			// far below 2^31.
			age := now - e.epoch
			if age > math.MaxUint32/2 {
				age = 0
			}
			if age <= maxIdle {
				i++
				continue
			}
			s.deleteAt(uint64(i), t)
			s.evicted++
			total++
			// The backward shift may have moved another entry into slot
			// i — re-examine it before advancing. (An entry shifted here
			// from a wrapped cluster can be visited twice; harmless, the
			// idle test is idempotent.)
		}
		s.mu.Unlock()
	}
	return total
}

// Evict removes one flow immediately (ok reports residence). Used when
// the front end knows the flow is finished (connection closed).
func (t *Table) Evict(id uint64) bool {
	h := t.hash(id)
	s := &t.shards[h&t.shardMask]
	s.mu.Lock()
	defer s.mu.Unlock()
	i, _, hit := s.find(id, h>>t.shardBits)
	if !hit {
		return false
	}
	s.deleteAt(i, t)
	s.evicted++
	return true
}

// deleteAt removes the entry at slot i with backward-shift deletion:
// successors in the probe cluster whose home slot precedes the vacated
// slot are shifted back, so lookups never need tombstones. Buckets do
// not cache the hash, so a successor's home is recomputed from its id.
// Caller holds s.mu.
func (s *shard) deleteAt(i uint64, t *Table) {
	mask := uint64(len(s.ents) - 1)
	s.used--
	for {
		s.ents[i].port = emptyPort
		j := i
		for {
			j = (j + 1) & mask
			e := &s.ents[j]
			if e.port == emptyPort {
				return // end of cluster: hole is final
			}
			// home is where e would probe first; if the hole lies
			// cyclically between home and j, e may shift into it.
			home := t.home(e.id) & mask
			if ((j - home) & mask) >= ((j - i) & mask) {
				s.ents[i] = *e
				i = j
				break
			}
		}
	}
}

// Range calls fn for every resident flow (id, port, served) under shard
// locks, one shard at a time. fn must not call back into the table.
func (t *Table) Range(fn func(id uint64, port int, served uint64)) {
	for si := range t.shards {
		s := &t.shards[si]
		s.mu.Lock()
		for i := range s.ents {
			e := &s.ents[i]
			if e.port != emptyPort {
				fn(e.id, int(e.port), e.served)
			}
		}
		s.mu.Unlock()
	}
}

// Fairness summarizes the per-flow service distribution: Jain's index
// over every resident flow's served count, the minimum and maximum share
// of total service, and per-port resident-flow counts — the flow-tier
// analogue of the simulator's Jain/min-share fairness analysis
// (internal/experiment.Fairness), computed from the same definitions via
// metrics.JainFromMoments.
type Fairness struct {
	Flows    int     `json:"flows"`
	Jain     float64 `json:"jain"`
	MinShare float64 `json:"min_share"`
	MaxShare float64 `json:"max_share"`
	// FlowsPerPort counts resident flows by assigned port.
	FlowsPerPort []int64 `json:"flows_per_port"`
}

// Fairness computes the current service-distribution summary. It walks
// the whole table (shard locks held briefly, one at a time) — a scrape
// path, not a hot path.
func (t *Table) Fairness() Fairness { return fairness(t.ports.N(), t.Range) }

// fairness summarizes the flows that each visits over n ports.
func fairness(n int, each func(fn func(id uint64, port int, served uint64))) Fairness {
	f := Fairness{
		FlowsPerPort: make([]int64, n),
		MinShare:     math.Inf(1),
	}
	var sum, sumSq float64
	each(func(_ uint64, port int, served uint64) {
		x := float64(served)
		sum += x
		sumSq += x * x
		f.Flows++
		if port >= 0 && port < len(f.FlowsPerPort) {
			f.FlowsPerPort[port]++
		}
		if x < f.MinShare {
			f.MinShare = x
		}
		if x > f.MaxShare {
			f.MaxShare = x
		}
	})
	f.Jain = metrics.JainFromMoments(f.Flows, sum, sumSq)
	if f.Flows == 0 || sum == 0 {
		f.MinShare, f.MaxShare = 0, 0
		return f
	}
	f.MinShare /= sum
	f.MaxShare /= sum
	return f
}

// BacklogImbalance summarizes how evenly the steered load sits across
// the ports right now: max/mean per-port backlog over the up ports
// (1.0 = perfectly even, n = everything on one port). 0 when no port is
// up or every backlog is zero. This is the quantity the po2 policy
// exists to shrink (EXPERIMENTS.md E31).
func BacklogImbalance(pv PortView) float64 {
	n := pv.N()
	var total, max int64
	up := 0
	for p := 0; p < n; p++ {
		if !pv.Up(p) {
			continue
		}
		up++
		b := pv.Backlog(p)
		total += b
		if b > max {
			max = b
		}
	}
	if up == 0 || total == 0 {
		return 0
	}
	mean := float64(total) / float64(up)
	return float64(max) / mean
}
