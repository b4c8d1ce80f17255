package flowtable

import (
	"math"
	"math/bits"
)

// refTable is the steering table as it was when New allocated every
// shard at full size and each bucket cached its flow's hash: the
// reference FuzzTableMatchesReference holds Table to, step by step.
// Single-goroutine only, so it keeps no locks; the probing, admission,
// refusal, eviction and deletion rules are the old table's, line for
// line.
type refTable struct {
	policy    Policy
	ports     PortView
	rehome    RehomePolicy
	shards    []refShard
	shardMask uint64
	slotMask  uint64
	shardBits uint
	seed      uint64
	maxProbe  int
	epoch     uint32

	rebalanced, rejected int64
}

type refEntry struct {
	id     uint64
	hash   uint64
	port   int32
	epoch  uint32
	served uint64
}

type refShard struct {
	ents                       []refEntry
	used                       int
	steered, inserted, evicted uint64
}

// newRefTable builds the reference for a Config that New accepts.
func newRefTable(cfg Config) *refTable {
	if cfg.Shards == 0 {
		cfg.Shards = 64
	}
	if cfg.MaxProbe == 0 {
		cfg.MaxProbe = 128
	}
	pol, err := NewPolicy(cfg.Policy)
	if err != nil {
		panic(err)
	}
	nshards := 1 << uint(bits.Len(uint(cfg.Shards-1)))
	perShard := nextPow2(2*cfg.Capacity/nshards + 1)
	if perShard < 16 {
		perShard = 16
	}
	t := &refTable{
		policy:    pol,
		ports:     cfg.Ports,
		rehome:    cfg.Rehome,
		shards:    make([]refShard, nshards),
		shardMask: uint64(nshards - 1),
		slotMask:  uint64(perShard - 1),
		shardBits: uint(bits.Len(uint(nshards - 1))),
		seed:      cfg.Seed,
		maxProbe:  cfg.MaxProbe,
	}
	for s := range t.shards {
		ents := make([]refEntry, perShard)
		for i := range ents {
			ents[i].port = emptyPort
		}
		t.shards[s].ents = ents
	}
	return t
}

func (t *refTable) hash(id uint64) uint64 { return mix(id ^ t.seed) }

func (t *refTable) Steer(id uint64) (int, Disposition, error) {
	h := t.hash(id)
	s := &t.shards[h&t.shardMask]
	i := (h >> t.shardBits) & t.slotMask
	for probe := 0; ; probe++ {
		e := &s.ents[i]
		if e.port == emptyPort {
			if s.used >= len(s.ents)/2 || probe >= t.maxProbe {
				t.rejected++
				return -1, Admitted, ErrTableFull
			}
			p := t.policy.Pick(h, t.ports)
			*e = refEntry{id: id, hash: h, port: int32(p), epoch: t.epoch, served: 1}
			s.used++
			s.inserted++
			s.steered++
			return p, Admitted, nil
		}
		if e.id == id {
			p := int(e.port)
			disp := Sticky
			if t.rehome == RehomeOnDown && !t.ports.Up(p) {
				p = t.policy.Pick(h, t.ports)
				e.port = int32(p)
				disp = Rebalanced
				t.rebalanced++
			}
			e.epoch = t.epoch
			e.served++
			s.steered++
			return p, disp, nil
		}
		if probe >= t.maxProbe {
			t.rejected++
			return -1, Admitted, ErrTableFull
		}
		i = (i + 1) & t.slotMask
	}
}

func (t *refTable) Lookup(id uint64) (int, uint64, bool) {
	h := t.hash(id)
	s := &t.shards[h&t.shardMask]
	i := (h >> t.shardBits) & t.slotMask
	for probe := 0; probe <= t.maxProbe; probe++ {
		e := &s.ents[i]
		if e.port == emptyPort {
			return -1, 0, false
		}
		if e.id == id {
			return int(e.port), e.served, true
		}
		i = (i + 1) & t.slotMask
	}
	return -1, 0, false
}

func (t *refTable) AdvanceEpoch() uint32 { t.epoch++; return t.epoch }

func (t *refTable) EvictIdle(maxIdle uint32) int {
	total := 0
	for si := range t.shards {
		s := &t.shards[si]
		for i := 0; i <= int(t.slotMask); {
			e := &s.ents[i]
			if e.port == emptyPort {
				i++
				continue
			}
			age := t.epoch - e.epoch
			if age > math.MaxUint32/2 {
				age = 0
			}
			if age <= maxIdle {
				i++
				continue
			}
			t.deleteAt(s, uint64(i))
			s.evicted++
			total++
		}
	}
	return total
}

func (t *refTable) Evict(id uint64) bool {
	h := t.hash(id)
	s := &t.shards[h&t.shardMask]
	i := (h >> t.shardBits) & t.slotMask
	for probe := 0; probe <= t.maxProbe; probe++ {
		e := &s.ents[i]
		if e.port == emptyPort {
			return false
		}
		if e.id == id {
			t.deleteAt(s, i)
			s.evicted++
			return true
		}
		i = (i + 1) & t.slotMask
	}
	return false
}

func (t *refTable) deleteAt(s *refShard, i uint64) {
	mask := t.slotMask
	s.used--
	for {
		s.ents[i].port = emptyPort
		j := i
		for {
			j = (j + 1) & mask
			e := &s.ents[j]
			if e.port == emptyPort {
				return
			}
			home := (e.hash >> t.shardBits) & mask
			if ((j - home) & mask) >= ((j - i) & mask) {
				s.ents[i] = *e
				i = j
				break
			}
		}
	}
}

// Stats folds the reference's counters; Buckets is its fixed total.
func (t *refTable) Stats() Stats {
	st := Stats{Rebalanced: t.rebalanced, Rejected: t.rejected}
	for si := range t.shards {
		s := &t.shards[si]
		st.Resident += int64(s.used)
		st.Steered += int64(s.steered)
		st.Inserted += int64(s.inserted)
		st.Evicted += int64(s.evicted)
		st.Buckets += int64(len(s.ents))
	}
	return st
}

func (t *refTable) Range(fn func(id uint64, port int, served uint64)) {
	for si := range t.shards {
		for _, e := range t.shards[si].ents {
			if e.port != emptyPort {
				fn(e.id, int(e.port), e.served)
			}
		}
	}
}

func (t *refTable) Fairness() Fairness { return fairness(t.ports.N(), t.Range) }
