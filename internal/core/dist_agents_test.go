package core_test

// The harness below models the distributed LCF scheduler of Section 5 as
// it would actually be deployed: one initiator agent and one target agent
// per port, each owning only its local state, communicating exclusively
// through typed messages over a wiring harness (the mesh of Figure 10b).
// No agent ever reads another agent's fields — the harness is the
// executable form of the paper's claim that the distributed scheduler
// "operates without global knowledge of the requests and grants".
//
// The protocol, per iteration (one synchronous message phase each, as in
// slot-synchronous hardware):
//
//	Request — every unmatched initiator sends Request{nrq} to each target
//	          in its working set (requested targets not yet known busy);
//	          nrq is the number of requests it is sending.
//	Grant   — every unmatched target picks the request with the lowest
//	          nrq (rotating tie-break) and answers Grant{ngt}, where ngt
//	          is the number of requests it received. Matched targets
//	          answer Busy, which prunes the sender's working set.
//	Accept  — every initiator holding grants accepts the one with the
//	          lowest ngt (rotating tie-break) by sending Accept; the
//	          accepting pair marks itself matched, and the newly matched
//	          target broadcasts Busy to its other current requesters so
//	          their next nrq reflects the loss of the choice.
//
// With the Busy notifications delivered before the next request phase,
// the locally-computed priorities coincide with the global-knowledge
// formulation, and the harness is property-tested equivalent to
// core.Dist (dist_agents_check_test.go). The harness also meters every
// message, giving the measured signalling volume that Section 6.2's
// worst-case formula bounds.

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/matching"
)

// MsgType enumerates protocol messages.
type MsgType int

// Protocol message types.
const (
	MsgRequest MsgType = iota
	MsgGrant
	MsgBusy
	MsgAccept
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case MsgRequest:
		return "request"
	case MsgGrant:
		return "grant"
	case MsgBusy:
		return "busy"
	case MsgAccept:
		return "accept"
	default:
		return "unknown"
	}
}

// Message is one protocol datagram on the harness.
type Message struct {
	Type     MsgType
	From, To int
	// Count carries nrq on requests and ngt on grants.
	Count int
}

// Traffic tallies harness load.
type Traffic struct {
	Requests, Grants, Busys, Accepts int64
}

// Total returns the message count.
func (t Traffic) Total() int64 { return t.Requests + t.Grants + t.Busys + t.Accepts }

// Bits returns the signalling volume using Figure 10's encodings
// (request/grant: 1 + log₂n bits; busy/accept: 1 bit), excluding
// addressing, like the paper's formula.
func (t Traffic) Bits(n int) int64 {
	l := int64(1)
	for 1<<uint(l) < n {
		l++
	}
	return (t.Requests+t.Grants)*(1+l) + t.Busys + t.Accepts
}

// initiator is one port's initiator-side agent. It sees only its own row
// of the request matrix and the messages addressed to it.
type initiator struct {
	id        int
	n         int
	working   *bitvec.Vector // requested targets not yet known busy
	matched   bool
	matchedTo int
	acceptPtr int

	grants []Message // inbox for this iteration's grants
}

// target is one port's target-side agent.
type target struct {
	id         int
	n          int
	matched    bool
	matchedTo  int
	grantPtr   int
	requesters *bitvec.Vector // who requested this iteration (for Busy broadcast)
	requests   []Message      // inbox
}

// Harness wires n initiators and n targets and runs the protocol.
type Harness struct {
	n     int
	inits []*initiator
	tgts  []*target

	// Stats accumulates message traffic across scheduling cycles.
	Stats Traffic
}

// New returns a harness for an n-port switch.
func New(n int) *Harness {
	if n <= 0 {
		panic(fmt.Sprintf("harness: non-positive port count %d", n))
	}
	h := &Harness{n: n}
	for i := 0; i < n; i++ {
		h.inits = append(h.inits, &initiator{id: i, n: n, working: bitvec.New(n)})
		h.tgts = append(h.tgts, &target{id: i, n: n, requesters: bitvec.New(n)})
	}
	return h
}

// N returns the port count.
func (h *Harness) N() int { return h.n }

// Schedule runs up to `iterations` protocol rounds for the request matrix
// and writes the resulting matching into m. Pointer state persists across
// calls, mirroring core.Dist.
func (h *Harness) Schedule(req *bitvec.Matrix, iterations int, m *matching.Match) {
	if req.N() != h.n || m.N() != h.n {
		panic("harness: dimension mismatch")
	}
	if iterations <= 0 {
		panic("harness: non-positive iterations")
	}
	m.Reset()

	// Per-cycle reset of agent state (pointers survive).
	for i, ini := range h.inits {
		ini.working.Copy(req.Row(i))
		ini.matched = false
		ini.matchedTo = -1
		ini.grants = ini.grants[:0]
	}
	for _, tg := range h.tgts {
		tg.matched = false
		tg.matchedTo = -1
		tg.requests = tg.requests[:0]
		tg.requesters.Reset()
	}

	for it := 0; it < iterations; it++ {
		// --- Request phase -------------------------------------------
		sent := false
		for _, ini := range h.inits {
			if ini.matched {
				continue
			}
			nrq := ini.working.PopCount()
			if nrq == 0 {
				continue
			}
			for j := ini.working.FirstSet(); j >= 0; j = ini.working.NextSet(j + 1) {
				h.Stats.Requests++
				h.tgts[j].requests = append(h.tgts[j].requests, Message{
					Type: MsgRequest, From: ini.id, To: j, Count: nrq,
				})
				sent = true
			}
		}
		if !sent {
			break // every remaining choice is exhausted
		}

		// --- Grant phase ----------------------------------------------
		anyGrant := false
		for _, tg := range h.tgts {
			tg.requesters.Reset()
			if len(tg.requests) == 0 {
				continue
			}
			if tg.matched {
				// A matched target turns every request into a Busy so the
				// sender prunes its working set.
				for _, msg := range tg.requests {
					h.Stats.Busys++
					h.inits[msg.From].working.Clear(tg.id)
				}
				tg.requests = tg.requests[:0]
				continue
			}
			ngt := len(tg.requests)
			best := -1
			bestNRQ := h.n + 1
			for _, msg := range tg.requests {
				tg.requesters.Set(msg.From)
				d := ((msg.From-tg.grantPtr)%h.n + h.n) % h.n
				bd := -1
				if best >= 0 {
					bd = ((best-tg.grantPtr)%h.n + h.n) % h.n
				}
				if msg.Count < bestNRQ || (msg.Count == bestNRQ && d < bd) {
					best = msg.From
					bestNRQ = msg.Count
				}
			}
			tg.requests = tg.requests[:0]
			h.Stats.Grants++
			h.inits[best].grants = append(h.inits[best].grants, Message{
				Type: MsgGrant, From: tg.id, To: best, Count: ngt,
			})
			anyGrant = true
		}
		if !anyGrant {
			break
		}

		// --- Accept phase ---------------------------------------------
		for _, ini := range h.inits {
			if len(ini.grants) == 0 {
				continue
			}
			best := -1
			bestNGT := h.n + 1
			for _, msg := range ini.grants {
				d := ((msg.From-ini.acceptPtr)%h.n + h.n) % h.n
				bd := -1
				if best >= 0 {
					bd = ((best-ini.acceptPtr)%h.n + h.n) % h.n
				}
				if msg.Count < bestNGT || (msg.Count == bestNGT && d < bd) {
					best = msg.From
					bestNGT = msg.Count
				}
			}
			ini.grants = ini.grants[:0]

			h.Stats.Accepts++
			tg := h.tgts[best]
			ini.matched = true
			ini.matchedTo = best
			tg.matched = true
			tg.matchedTo = ini.id
			m.Pair(ini.id, best)
			tg.grantPtr = (ini.id + 1) % h.n
			ini.acceptPtr = (best + 1) % h.n

			// The newly matched pair leaves the protocol; the target
			// tells its other current requesters immediately (deasserting
			// its grant line), so their next nrq excludes it.
			for r := tg.requesters.FirstSet(); r >= 0; r = tg.requesters.NextSet(r + 1) {
				if r == ini.id {
					continue
				}
				h.Stats.Busys++
				h.inits[r].working.Clear(tg.id)
			}
			ini.working.Clear(best)
		}
	}
}
