package clint

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/queue"
	"repro/internal/rng"
	"repro/internal/traffic"
)

// Host models one Clint node's bulk-channel state machine: it keeps
// virtual output queues, announces their occupancy in configuration
// packets every scheduling cycle, and forwards the head packet of a VOQ
// when the corresponding grant arrives.
type Host struct {
	id   int
	voqs [NumPorts]queue.Ring[*packet.Packet] // one per destination
	pool *packet.Pool

	// pre is the precalculated-schedule row the host will announce in its
	// next configuration packet (Section 4.3); the host is responsible
	// for its conflict-freedom.
	pre uint16
	// ben and qen are the enable masks the host currently advertises.
	ben, qen uint16

	// CRCErrSeen counts grant packets that flagged our configuration as
	// corrupt or missing — the host-side view of link health.
	CRCErrSeen int64
}

// NewHost returns host id with per-destination VOQs of the given capacity.
func NewHost(id, voqCap int, pool *packet.Pool) *Host {
	if id < 0 || id >= NumPorts {
		panic(fmt.Sprintf("clint: host id %d out of range", id))
	}
	h := &Host{id: id, pool: pool, ben: 0xFFFF, qen: 0xFFFF}
	for j := range h.voqs {
		h.voqs[j] = queue.NewRing[*packet.Packet](voqCap)
	}
	return h
}

// ID returns the host's port number.
func (h *Host) ID() int { return h.id }

// Enqueue buffers a packet for transmission on the bulk channel; it
// reports false (and recycles nothing) when the destination VOQ is full.
func (h *Host) Enqueue(p *packet.Packet) bool { return h.voqs[p.Dst].Push(p) }

// Backlog returns the number of queued packets.
func (h *Host) Backlog() int {
	total := 0
	for j := range h.voqs {
		total += h.voqs[j].Len()
	}
	return total
}

// SetPrecalc announces a precalculated-schedule row (bit j = target j)
// for the next scheduling cycle.
func (h *Host) SetPrecalc(row uint16) { h.pre = row }

// Disable clears peer `k` from this host's enable masks — the mechanism
// Section 4.1 provides for fencing off malfunctioning hosts.
func (h *Host) Disable(k int) {
	if k >= 0 && k < NumPorts {
		h.ben &^= 1 << uint(k)
		h.qen &^= 1 << uint(k)
	}
}

// BuildConfig encodes this cycle's configuration packet from the VOQ
// occupancy.
func (h *Host) BuildConfig() []byte {
	var req uint16
	for j := 0; j < NumPorts; j++ {
		if h.voqs[j].Len() > 0 {
			req |= 1 << uint(j)
		}
	}
	return Config{Req: req, Pre: h.pre, Ben: h.ben, Qen: h.qen}.Encode()
}

// ProcessGrant decodes a grant packet addressed to this host and returns
// the granted target (or -1). Error flags are tallied.
func (h *Host) ProcessGrant(frame []byte) (int, error) {
	g, err := DecodeGrant(frame)
	if err != nil {
		return -1, err
	}
	if int(g.NodeID) != h.id {
		return -1, fmt.Errorf("clint: grant for node %d delivered to host %d", g.NodeID, h.id)
	}
	if g.CRCErr {
		h.CRCErrSeen++
	}
	if !g.GntVal {
		return -1, nil
	}
	return int(g.Gnt), nil
}

// PopFor removes the head packet of the VOQ for target j, for the
// transfer stage of a granted connection.
func (h *Host) PopFor(j int) *packet.Packet {
	p, _ := h.voqs[j].Pop()
	return p
}

// requeue returns a NACKed cell to the head of its VOQ, preserving flow
// order, and reports false when the VOQ has no room for it. The ring's
// PushFront grows rather than refuses, so the bound is checked here.
func (h *Host) requeue(p *packet.Packet) bool {
	q := &h.voqs[p.Dst]
	if q.Full() {
		return false
	}
	q.PushFront(p)
	return true
}

// Cluster wires sixteen hosts, the bulk scheduler and the three-stage
// pipeline into a slot-stepped simulation of Clint's bulk channel —
// Figure 4's organization driven end to end through the real packet
// formats (every configuration and grant frame is encoded, CRC-protected
// and decoded each cycle).
type Cluster struct {
	Hosts []*Host
	Bulk  *BulkScheduler
	Pipe  *Pipeline

	pool *packet.Pool
	gen  traffic.Generator
	rng  *rng.PCG32

	// CorruptRate injects configuration-frame corruption with the given
	// per-frame probability, exercising the CRC error path.
	CorruptRate float64
	// DataCorruptRate injects bulk-data-frame corruption: the target's
	// CRC check fails, a negative acknowledgment returns, and the
	// initiator requeues the cell at its VOQ head for retransmission in a
	// later granted slot.
	DataCorruptRate float64

	// NACKs counts negative acknowledgments (corrupt data frames);
	// Retransmissions counts cells requeued for another attempt.
	NACKs           int64
	Retransmissions int64

	// pending[stage] holds grants waiting for their transfer slot:
	// pending maps are keyed by host and hold the granted target.
	transferQueue []grantSet

	// Delivered counts packets that completed the acknowledgment stage;
	// DelaySum accumulates their generation→ack delays in slots.
	Delivered   int64
	DelaySum    int64
	DroppedFull int64
}

type grantSet struct {
	targets [NumPorts]int // per host: granted target or -1
}

// NewCluster builds a 16-host cluster with Bernoulli uniform arrivals at
// the given per-host load.
func NewCluster(load float64, voqCap int, seed uint64) *Cluster {
	pool := packet.NewPool()
	c := &Cluster{
		Bulk: NewBulkScheduler(),
		Pipe: NewPipeline(),
		pool: pool,
		gen:  traffic.NewBernoulli(NumPorts, load, traffic.NewUniform(NumPorts), seed),
		rng:  rng.New(seed ^ 0xC11A7),
	}
	for i := 0; i < NumPorts; i++ {
		c.Hosts = append(c.Hosts, NewHost(i, voqCap, pool))
	}
	return c
}

// Step advances the cluster by one slot:
//
//  1. the transfer stage executes the grants issued in the previous slot
//     (popping the granted VOQ heads),
//  2. the acknowledgment stage completes the transfers of the slot before
//     that (packets become Delivered),
//  3. every host emits a configuration packet (possibly corrupted in
//     flight), the bulk scheduler computes the new schedule and returns
//     grant packets, which the hosts decode,
//  4. new arrivals enter the VOQs.
func (c *Cluster) Step() error {
	now := c.Pipe.Slot()

	// 1+2. Advance the pipeline with last cycle's grants recorded below;
	// execute transfers one slot after scheduling.
	if len(c.transferQueue) > 0 {
		gs := c.transferQueue[0]
		c.transferQueue = c.transferQueue[1:]
		for i, h := range c.Hosts {
			j := gs.targets[i]
			if j < 0 {
				continue
			}
			p := h.PopFor(j)
			if p == nil {
				return fmt.Errorf("clint: host %d granted target %d with empty VOQ at slot %d", i, j, now)
			}
			// The cell crosses the bulk crossbar as a framed, CRC-
			// protected bulk request packet (breq of Figure 5).
			frame := BulkData{Src: uint8(i), Dst: uint8(j), Seq: uint16(p.ID)}.Encode()
			if c.DataCorruptRate > 0 && c.rng.Bool(c.DataCorruptRate) {
				frame[4+c.rng.Intn(BulkPayloadLen)] ^= 1 << uint(c.rng.Intn(8))
			}
			data, derr := DecodeBulkData(frame)
			ackFrame := BulkAck{Src: uint8(j), Dst: uint8(i), Seq: uint16(p.ID), OK: derr == nil}.Encode()
			ack, aerr := DecodeBulkAck(ackFrame)
			if aerr != nil {
				return fmt.Errorf("clint: ack framing: %w", aerr)
			}
			if ack.OK {
				if int(data.Src) != i || int(data.Dst) != j {
					return fmt.Errorf("clint: bulk frame misrouted: %+v", data)
				}
				// Acknowledgment returns one slot after the transfer.
				c.Delivered++
				c.DelaySum += int64(now+1) - int64(p.Generated)
				c.pool.Put(p)
				continue
			}
			// Negative acknowledgment: the initiator still owns the cell
			// and requeues it at the VOQ head (flow order preserved); it
			// will be re-requested in the next configuration packet.
			c.NACKs++
			c.Retransmissions++
			if !h.requeue(p) {
				// VOQ refilled behind the in-flight cell; dropping is the
				// only option left and is accounted. Here the NACK resolves
				// in the step that popped the cell, before any arrival, so
				// the place it left is still free; the check keeps the VOQ
				// bound should an arrival ever land in between.
				c.DroppedFull++
				c.pool.Put(p)
			}
		}
	}

	// 3. Configuration / scheduling / grant exchange.
	frames := make([][]byte, NumPorts)
	for i, h := range c.Hosts {
		f := h.BuildConfig()
		if c.CorruptRate > 0 && c.rng.Bool(c.CorruptRate) {
			f[1+c.rng.Intn(8)] ^= 1 << uint(c.rng.Intn(8))
		}
		frames[i] = f
	}
	grants, res, err := c.Bulk.Cycle(frames)
	if err != nil {
		return err
	}
	c.Pipe.Advance(res)

	var gs grantSet
	for i := range gs.targets {
		gs.targets[i] = -1
	}
	for i, h := range c.Hosts {
		j, err := h.ProcessGrant(grants[i])
		if err != nil {
			return err
		}
		gs.targets[i] = j
	}
	c.transferQueue = append(c.transferQueue, gs)

	// 4. Arrivals.
	for i, h := range c.Hosts {
		dst := c.gen.Next(i)
		if dst == traffic.NoPacket {
			continue
		}
		p := c.pool.Get(i, dst, now)
		if !h.Enqueue(p) {
			c.DroppedFull++
			c.pool.Put(p)
		}
	}
	c.gen.Advance()
	return nil
}

// MeanDelay returns the average generation→acknowledgment delay of
// delivered packets, in slots.
func (c *Cluster) MeanDelay() float64 {
	if c.Delivered == 0 {
		return 0
	}
	return float64(c.DelaySum) / float64(c.Delivered)
}

// Backlog returns the total packets queued across all hosts.
func (c *Cluster) Backlog() int {
	total := 0
	for _, h := range c.Hosts {
		total += h.Backlog()
	}
	return total
}
