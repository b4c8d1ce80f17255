package runtime

import (
	"repro/internal/metrics"
	"repro/internal/sched"
)

// PortSnapshot is one port's cumulative counters plus its instantaneous
// VOQ backlog (frames queued across the input's n VOQs, read from the
// switchcore datapath).
type PortSnapshot struct {
	Port          int   `json:"port"`
	Admitted      int64 `json:"admitted"`
	Backpressured int64 `json:"backpressured"`
	Delivered     int64 `json:"delivered"`
	Backlog       int64 `json:"backlog"`
}

// Snapshot is a point-in-time, JSON-serializable view of the engine's
// counters, served by cmd/lcfd's metrics endpoint.
type Snapshot struct {
	Slot          int64 `json:"slot"`
	Admitted      int64 `json:"admitted"`
	Backpressured int64 `json:"backpressured"`
	Delivered     int64 `json:"delivered"`
	Backlog       int64 `json:"backlog"`
	Requested     int64 `json:"requested"`
	Matched       int64 `json:"matched"`
	WastedGrants  int64 `json:"wasted_grants"`
	MaskedOutputs int64 `json:"masked_outputs"`
	OccupiedVOQs  int64 `json:"occupied_voqs"`

	// Fault and degradation accounting; zero-valued fields are omitted so
	// a fault-free engine's snapshot is unchanged.
	FaultRejected int64 `json:"fault_rejected,omitempty"`
	FaultMasked   int64 `json:"fault_masked,omitempty"`
	FaultDropped  int64 `json:"fault_dropped,omitempty"`
	Stranded      int64 `json:"stranded,omitempty"`
	Undrained     int64 `json:"undrained,omitempty"`
	FailedInputs  []int `json:"failed_inputs,omitempty"`
	FailedOutputs []int `json:"failed_outputs,omitempty"`

	// GrantsByRule attributes cumulative grants to the LCF decision rule
	// that produced them, keyed by sched.GrantRule.String(). Rules that
	// never fired are omitted.
	GrantsByRule map[string]int64 `json:"grants_by_rule,omitempty"`

	// Flows is the flow tier's counters (Config.Flows > 0); omitted on
	// engines without a flow table.
	Flows *FlowSnapshot `json:"flows,omitempty"`

	// Classes is the service-class tier's counters (Config.Classes set);
	// omitted on engines without the PIFO ranking tier.
	Classes *ClassSnapshot `json:"classes,omitempty"`

	// MatchRatio is cumulative matched grants over cumulative request
	// bits — the live matched/requested efficiency of the scheduler.
	MatchRatio float64 `json:"match_ratio"`
	// ThroughputPerSlot is delivered frames per output per slot, the live
	// analogue of metrics.Counters.Throughput.
	ThroughputPerSlot float64 `json:"throughput_per_slot"`

	Ports []PortSnapshot `json:"ports"`

	VOQDepth  metrics.HistogramSnapshot `json:"voq_depth"`
	MatchSize metrics.HistogramSnapshot `json:"match_size"`

	SlotLatencyNs  metrics.HistogramSnapshot `json:"slot_latency_ns"`
	SlotLatencyP50 float64                   `json:"slot_latency_p50_ns"`
	SlotLatencyP90 float64                   `json:"slot_latency_p90_ns"`
	SlotLatencyP99 float64                   `json:"slot_latency_p99_ns"`
}

// Snapshot captures the current counters. Safe to call concurrently with
// a running engine; the counters are read atomically but not as one
// transaction, so totals may be off by the frames in flight during the
// call — fine for monitoring.
func (e *Engine) Snapshot() Snapshot {
	m := &e.met
	s := Snapshot{
		Slot:          e.slot.Load(),
		Admitted:      m.Admitted.Value(),
		Backpressured: m.Backpressured.Value(),
		Delivered:     m.Delivered.Value(),
		Backlog:       m.Backlog.Value(),
		Requested:     m.Requested.Value(),
		Matched:       m.Matched.Value(),
		WastedGrants:  m.WastedGrants.Value(),
		MaskedOutputs: m.MaskedOutputs.Value(),
		OccupiedVOQs:  m.OccupiedVOQs.Value(),
		FaultRejected: m.RejectedPortDown.Value(),
		FaultMasked:   m.FaultMasked.Value(),
		FaultDropped:  m.DroppedFault.Value(),
		Stranded:      m.Stranded.Value(),
		Undrained:     m.Undrained.Value(),
		VOQDepth:      m.VOQDepth.Snapshot(),
		MatchSize:     m.MatchSize.Snapshot(),
		SlotLatencyNs: m.SlotLatency.Snapshot(),
		Flows:         e.flowSnapshot(),
		Classes:       e.classSnapshot(),
	}
	for rule := sched.GrantRule(0); rule < sched.NumGrantRules; rule++ {
		if v := m.GrantsByRule[rule].Value(); v > 0 {
			if s.GrantsByRule == nil {
				s.GrantsByRule = make(map[string]int64, sched.NumGrantRules)
			}
			s.GrantsByRule[rule.String()] = v
		}
	}
	if s.Requested > 0 {
		s.MatchRatio = float64(s.Matched) / float64(s.Requested)
	}
	if s.Slot > 0 {
		s.ThroughputPerSlot = float64(s.Delivered) / float64(s.Slot*int64(e.n))
	}
	for p := 0; p < e.n; p++ {
		in, out := e.LinkDown(p)
		if in {
			s.FailedInputs = append(s.FailedInputs, p)
		}
		if out {
			s.FailedOutputs = append(s.FailedOutputs, p)
		}
	}
	s.SlotLatencyP50 = m.SlotLatency.Quantile(0.50)
	s.SlotLatencyP90 = m.SlotLatency.Quantile(0.90)
	s.SlotLatencyP99 = m.SlotLatency.Quantile(0.99)
	s.Ports = make([]PortSnapshot, e.n)
	for p := range s.Ports {
		e.inMu[p].Lock()
		backlog := e.dp.InputBacklog(p)
		e.inMu[p].Unlock()
		s.Ports[p] = PortSnapshot{
			Port:          p,
			Admitted:      m.PerInputAdmitted[p].Value(),
			Backpressured: m.PerInputBackpressured[p].Value(),
			Delivered:     m.PerOutputDelivered[p].Value(),
			Backlog:       int64(backlog),
		}
	}
	return s
}
