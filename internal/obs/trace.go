package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/matching"
	"repro/internal/sched"
)

// Grant is one granted (input, output) pair of a traced slot, with the
// decision attribution reported by the scheduler's sched.Explainer (the
// LCF variants). Rule is the sched.GrantRule label value; Choices is the
// LCF priority level — how many outstanding requests the winner held at
// decision time (-1 when the scheduler cannot attribute its grants).
type Grant struct {
	In      int    `json:"in"`
	Out     int    `json:"out"`
	Rule    string `json:"rule"`
	Choices int    `json:"choices"`
}

// Event is one drained ring record. The common case (Kind == "") is a
// slot decision: the slot number, the request-matrix cardinality
// advertised to the scheduler, and the chosen matching with per-grant
// attribution. Matched always equals len(Grants); it is serialized anyway
// so JSONL consumers can aggregate without scanning.
//
// Kind == "fault" marks a link-state transition instead: Port and Dir
// name the link ("input" or "output") and State is "down" or "up". Fault
// events thread degradation windows through the same timeline the slot
// decisions live on, so a trace shows exactly which matchings were
// computed under which failures.
//
// Kind == "flow" marks a flow-tier steering decision (runtime.Config
// .Flows): Flow is the 64-bit flow id, Port the input port it was
// steered to (-1 when the table refused it), and Disp the disposition —
// "new" for a fresh admission, "rebalanced" for a resident flow moved
// off a down port, "rejected" for a full-table refusal. Sticky hits
// (the steady-state per-frame path) are deliberately not traced: flow
// events record decisions, so the ring holds the interesting
// transitions instead of drowning in per-frame repeats.
//
// Kind == "class" marks a service-class SLO violation (runtime.Config
// .Classes): a class-tier frame crossed the fabric after its deadline
// slot. Class is the class index into the engine's class list, Port the
// output it was delivered to, and Latency its admission-to-delivery
// time in slots. On-time deliveries emit nothing: class events annotate
// only the slots where the tier failed its contract, so the ring
// survives sustained healthy traffic.
type Event struct {
	Slot      int64   `json:"slot"`
	Requested int     `json:"requested"`
	Matched   int     `json:"matched"`
	Grants    []Grant `json:"grants,omitempty"`

	Kind  string `json:"kind,omitempty"`
	Port  int    `json:"port,omitempty"`
	Dir   string `json:"dir,omitempty"`
	State string `json:"state,omitempty"`

	Flow uint64 `json:"flow,omitempty"`
	Disp string `json:"disp,omitempty"`

	Class   int   `json:"class,omitempty"`
	Latency int64 `json:"latency,omitempty"`
}

// Link directions for EmitFault.
const (
	DirInput  = "input"
	DirOutput = "output"
)

// Flow-steering dispositions for EmitFlow. The values are the wire
// encoding packed into the ring's aux word; the strings are the Disp
// labels a drain reports.
const (
	FlowNew uint8 = iota
	FlowRebalanced
	FlowRejected
)

func flowDispString(d uint8) string {
	switch d {
	case FlowNew:
		return "new"
	case FlowRebalanced:
		return "rebalanced"
	case FlowRejected:
		return "rejected"
	default:
		return fmt.Sprintf("disp(%d)", d)
	}
}

// traceSlot is one preallocated ring entry. Every field is accessed
// atomically so a concurrent drain is race-free; the seq field is a
// per-entry sequence lock: 2w+1 while entry w is being written, 2w+2
// once complete. A reader that observes any other value (an older
// generation, or mid-write) discards the entry.
type traceSlot struct {
	seq    atomic.Uint64
	slot   atomic.Int64
	counts atomic.Uint64   // requested<<32 | ngrants (flow events: the 64-bit flow id)
	aux    atomic.Uint64   // packed fault, flow or class record, 0 for slot-decision entries
	grants []atomic.Uint64 // packed Grant records, capacity n
}

// The aux word's kind flags: bit 63 marks a fault record, bit 61 a
// flow-steering record, bit 60 a class SLO-violation record; the zero
// word means "slot decision". The flags are disjoint so a reader
// branches on one load.
const (
	auxFault = uint64(1) << 63
	auxFlow  = uint64(1) << 61
	auxClass = uint64(1) << 60
)

// packFault packs a link-state transition into one word: the fault flag,
// the port, the direction and the new state.
func packFault(port int, dir string, up bool) uint64 {
	w := auxFault | uint64(uint16(port))<<16
	if dir == DirOutput {
		w |= 1 << 8
	}
	if up {
		w |= 1
	}
	return w
}

// packFlow packs a steering decision's port and disposition into the
// aux word (the 64-bit flow id itself rides in the counts word). A
// rejected flow has no port; the port field then carries the all-ones
// sentinel.
func packFlow(port int, disp uint8) uint64 {
	return auxFlow | uint64(uint16(port))<<16 | uint64(disp)
}

// packClass packs an SLO-violation record's output port and class index
// into the aux word (the latency in slots rides in the counts word).
// The class index fits a byte — the wire format and ValidateClasses cap
// the class list at 255.
func packClass(class, port int) uint64 {
	return auxClass | uint64(uint16(port))<<16 | uint64(uint8(class))
}

// packGrant packs a grant into one word: in(16) out(16) choices+1(16)
// rule(8). Choices is offset by one so the "unknown" sentinel -1 packs
// to zero.
func packGrant(in, out int, rule sched.GrantRule, choices int) uint64 {
	return uint64(uint16(in))<<48 | uint64(uint16(out))<<32 |
		uint64(uint16(choices+1))<<16 | uint64(rule)
}

func unpackGrant(g uint64) Grant {
	return Grant{
		In:      int(uint16(g >> 48)),
		Out:     int(uint16(g >> 32)),
		Rule:    sched.GrantRule(g & 0xff).String(),
		Choices: int(uint16(g>>16)) - 1,
	}
}

// Tracer is a bounded, preallocated, lock-free ring of slot-decision
// events. Any goroutine may emit, Drain or toggle concurrently: each
// emitter claims a ring slot with one fetch-add on pos, and the
// per-entry sequence lock makes a half-written entry detectable (a
// drain skips it). The arbiter is still the only emitter of slot and
// fault records; the flow tier emits its steering events from whatever
// goroutine offered the steered frame. Emit performs atomic stores into
// preallocated entries only — zero heap allocations — and a disabled
// tracer costs exactly one atomic load per Emit, which is why the emit
// hooks can stay compiled into the slot loop unconditionally.
type Tracer struct {
	n       int
	enabled atomic.Bool
	pos     atomic.Uint64 // ring slots claimed since construction
	ring    []traceSlot
}

// NewTracer returns a disabled tracer for an n-port switch retaining the
// last capacity slot events. It panics on non-positive arguments: both
// come from validated configs.
func NewTracer(n, capacity int) *Tracer {
	if n <= 0 || capacity <= 0 {
		panic(fmt.Sprintf("obs: tracer n=%d capacity=%d", n, capacity))
	}
	t := &Tracer{n: n, ring: make([]traceSlot, capacity)}
	for i := range t.ring {
		t.ring[i].grants = make([]atomic.Uint64, n)
	}
	return t
}

// Enable turns event recording on.
func (t *Tracer) Enable() { t.enabled.Store(true) }

// Disable turns event recording off; the ring keeps its contents.
func (t *Tracer) Disable() { t.enabled.Store(false) }

// SetEnabled sets the recording state.
func (t *Tracer) SetEnabled(on bool) { t.enabled.Store(on) }

// Enabled reports whether events are being recorded.
func (t *Tracer) Enabled() bool { return t.enabled.Load() }

// Capacity returns the ring size in events.
func (t *Tracer) Capacity() int { return len(t.ring) }

// Emitted returns the number of events recorded since construction
// (including events since overwritten by ring wraparound).
func (t *Tracer) Emitted() int64 { return int64(t.pos.Load()) }

// Emit records one slot decision: the request cardinality, the matching,
// and — when ex is non-nil — the rule and choice count behind each grant.
// Nil-safe and cheap when disabled (one atomic load). Safe for
// concurrent use with every other emitter, Drain and the enable toggles:
// the fetch-add on pos gives each emitter a private ring slot.
func (t *Tracer) Emit(slot int64, requested int, m *matching.Match, ex sched.Explainer) {
	if t == nil || !t.enabled.Load() {
		return
	}
	w := t.pos.Add(1) - 1
	e := &t.ring[w%uint64(len(t.ring))]
	e.seq.Store(2*w + 1)
	e.slot.Store(slot)
	e.aux.Store(0)
	ngrants := 0
	for i, j := range m.InToOut {
		if j == matching.Unmatched {
			continue
		}
		rule, choices := sched.RuleUnattributed, -1
		if ex != nil {
			rule, choices = ex.Explain(i)
		}
		if ngrants < len(e.grants) { // cannot overflow with a valid match; belt and braces
			e.grants[ngrants].Store(packGrant(i, j, rule, choices))
			ngrants++
		}
	}
	e.counts.Store(uint64(uint32(requested))<<32 | uint64(uint16(ngrants)))
	e.seq.Store(2*w + 2)
}

// EmitGrants records one slot decision from a per-output grant vector —
// the CICQ datapath's native decision shape, where the pull arbiters are
// not constrained to a permutation and matching.Match cannot represent
// the result. Ring records are identical in schema to Emit's (grants
// carry in/out/rule/choices), just enumerated in output order. Same
// contract as Emit: single-writer, nil-safe, one atomic load when
// disabled, zero heap allocations.
func (t *Tracer) EmitGrants(slot int64, requested int, g *sched.GrantSet) {
	if t == nil || !t.enabled.Load() {
		return
	}
	w := t.pos.Add(1) - 1
	e := &t.ring[w%uint64(len(t.ring))]
	e.seq.Store(2*w + 1)
	e.slot.Store(slot)
	e.aux.Store(0)
	ngrants := 0
	for j, i := range g.Src {
		if i == matching.Unmatched {
			continue
		}
		if ngrants < len(e.grants) { // cannot overflow with a valid grant set; belt and braces
			e.grants[ngrants].Store(packGrant(i, j, g.Rule[j], g.Choices[j]))
			ngrants++
		}
	}
	e.counts.Store(uint64(uint32(requested))<<32 | uint64(uint16(ngrants)))
	e.seq.Store(2*w + 2)
}

// EmitFault records a link-state transition (port's input or output link
// going down or recovering) as a ring event, so drained timelines show
// degradation windows inline with the slot decisions they shaped. Same
// contract as Emit: single-writer (the arbiter applies fault transitions
// at the top of a slot), nil-safe, one atomic load when disabled, and
// zero heap allocations.
func (t *Tracer) EmitFault(slot int64, port int, dir string, up bool) {
	if t == nil || !t.enabled.Load() {
		return
	}
	w := t.pos.Add(1) - 1
	e := &t.ring[w%uint64(len(t.ring))]
	e.seq.Store(2*w + 1)
	e.slot.Store(slot)
	e.counts.Store(0)
	e.aux.Store(packFault(port, dir, up))
	e.seq.Store(2*w + 2)
}

// EmitFlow records a flow-tier steering decision: flow id, chosen input
// port (-1 for a rejected flow) and disposition (FlowNew,
// FlowRebalanced, FlowRejected). Unlike the slot and fault emitters it
// runs on admission goroutines, concurrently with the arbiter's own
// emits — the fetch-add slot claim makes that safe. The flow id rides
// in the entry's counts word; port and disposition pack into aux with
// the flow kind flag. Nil-safe, one atomic load when disabled, zero
// heap allocations.
func (t *Tracer) EmitFlow(slot int64, flow uint64, port int, disp uint8) {
	if t == nil || !t.enabled.Load() {
		return
	}
	w := t.pos.Add(1) - 1
	e := &t.ring[w%uint64(len(t.ring))]
	e.seq.Store(2*w + 1)
	e.slot.Store(slot)
	e.counts.Store(flow)
	e.aux.Store(packFlow(port, disp))
	e.seq.Store(2*w + 2)
}

// EmitClass records a service-class SLO violation: class index, output
// port and the frame's admission-to-delivery latency in slots. Emitted
// from the dispatch path, concurrently with the flow tier's emitters,
// which the fetch-add slot claim makes safe.
// The latency rides in the entry's counts word; class and port pack
// into aux with the class kind flag. Nil-safe, one atomic load when
// disabled, zero heap allocations.
func (t *Tracer) EmitClass(slot int64, class, port int, latency int64) {
	if t == nil || !t.enabled.Load() {
		return
	}
	w := t.pos.Add(1) - 1
	e := &t.ring[w%uint64(len(t.ring))]
	e.seq.Store(2*w + 1)
	e.slot.Store(slot)
	e.counts.Store(uint64(latency))
	e.aux.Store(packClass(class, port))
	e.seq.Store(2*w + 2)
}

// Drain returns the ring's current window of events, oldest first. It
// does not consume: two immediate drains return the same window. Entries
// being overwritten by a concurrent Emit are skipped (the window then has
// a hole at its oldest end, never a torn record).
func (t *Tracer) Drain() []Event {
	pos := t.pos.Load()
	capacity := uint64(len(t.ring))
	start := uint64(0)
	if pos > capacity {
		start = pos - capacity
	}
	evs := make([]Event, 0, pos-start)
	for w := start; w < pos; w++ {
		e := &t.ring[w%capacity]
		s1 := e.seq.Load()
		if s1 != 2*w+2 {
			continue // mid-write, or already overwritten by a newer generation
		}
		counts := e.counts.Load()
		ev := Event{
			Slot:      e.slot.Load(),
			Requested: int(counts >> 32),
			Matched:   int(counts & 0xffff),
		}
		if f := e.aux.Load(); f&auxFault != 0 {
			ev.Kind = "fault"
			ev.Port = int(uint16(f >> 16))
			ev.Dir, ev.State = DirInput, "down"
			if f&(1<<8) != 0 {
				ev.Dir = DirOutput
			}
			if f&1 != 0 {
				ev.State = "up"
			}
			if e.seq.Load() != s1 {
				continue
			}
			evs = append(evs, ev)
			continue
		} else if f&auxFlow != 0 {
			// The counts word carries the flow id, not requested/matched.
			ev.Kind = "flow"
			ev.Requested, ev.Matched = 0, 0
			ev.Flow = counts
			ev.Port = int(int16(uint16(f >> 16)))
			ev.Disp = flowDispString(uint8(f))
			if e.seq.Load() != s1 {
				continue
			}
			evs = append(evs, ev)
			continue
		} else if f&auxClass != 0 {
			// The counts word carries the latency in slots.
			ev.Kind = "class"
			ev.Requested, ev.Matched = 0, 0
			ev.Class = int(uint8(f))
			ev.Port = int(uint16(f >> 16))
			ev.Latency = int64(counts)
			if e.seq.Load() != s1 {
				continue
			}
			evs = append(evs, ev)
			continue
		}
		if ev.Matched > len(e.grants) {
			continue // torn counts (the seq re-check below would reject it anyway)
		}
		ev.Grants = make([]Grant, ev.Matched)
		for k := range ev.Grants {
			ev.Grants[k] = unpackGrant(e.grants[k].Load())
		}
		if e.seq.Load() != s1 {
			continue // overwritten mid-copy: discard the torn record
		}
		evs = append(evs, ev)
	}
	return evs
}

// Register adds the tracer's own meta-metrics to a registry.
func (t *Tracer) Register(r *Registry) {
	r.Gauge("lcf_trace_enabled",
		"Whether slot-event tracing is currently recording (1) or disabled (0).",
		func() float64 {
			if t.Enabled() {
				return 1
			}
			return 0
		})
	r.Counter("lcf_trace_events_total",
		"Slot events recorded since startup, including events since overwritten by ring wraparound.",
		t.Emitted)
	r.Gauge("lcf_trace_capacity_events",
		"Size of the slot-event trace ring: how many of the most recent events a drain can return.",
		func() float64 { return float64(t.Capacity()) })
}

// WriteJSONL writes events one JSON object per line (the /trace wire
// format and the lcftrace -jsonl file format).
func WriteJSONL(w io.Writer, evs []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range evs {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a stream of JSONL events (blank lines are skipped).
func ReadJSONL(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var evs []Event
	for {
		var ev Event
		if err := dec.Decode(&ev); err == io.EOF {
			return evs, nil
		} else if err != nil {
			return evs, fmt.Errorf("obs: trace JSONL: %w", err)
		}
		evs = append(evs, ev)
	}
}
