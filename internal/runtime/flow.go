package runtime

import (
	"errors"
	"fmt"

	"repro/internal/flowtable"
	"repro/internal/obs"
)

// ErrNoFlowTable reports a steered request on an engine whose flow tier
// is disabled (Config.Flows == 0).
var ErrNoFlowTable = errors.New("runtime: flow tier not enabled (set Config.Flows)")

// flowView adapts the engine's live state to flowtable.PortView: the
// steering policies read each input's VOQ backlog from the lock-free
// PerInputBacklog gauges and its link state from the fault atomics —
// no input locks, so a new-flow decision never contends with the
// arbiter or other admissions.
type flowView struct{ e *Engine }

func (v flowView) N() int              { return v.e.n }
func (v flowView) Backlog(p int) int64 { return v.e.met.PerInputBacklog[p].Value() }
func (v flowView) Up(p int) bool       { return !v.e.fault.inDown[p].Load() }

// steer is Offer's steer stage: it resolves the input port for flow id
// through the steering table, admitting the flow if it is new. A new
// flow on a full table is refused with flowtable.ErrTableFull. A sticky
// flow whose port is down under the hold pairing keeps its port — the
// gate then bounces its frames until recovery, preserving order.
func (e *Engine) steer(id uint64) (port int, err error) {
	port, disp, err := e.flows.Steer(id)
	if err != nil {
		e.cfg.Tracer.EmitFlow(e.slot.Load(), id, -1, obs.FlowRejected)
		return -1, fmt.Errorf("%w: flow %d", err, id)
	}
	// Trace steering decisions (admissions and rebalances), not sticky
	// hits: the per-frame steady state would drown the ring.
	switch disp {
	case flowtable.Admitted:
		e.cfg.Tracer.EmitFlow(e.slot.Load(), id, port, obs.FlowNew)
	case flowtable.Rebalanced:
		e.cfg.Tracer.EmitFlow(e.slot.Load(), id, port, obs.FlowRebalanced)
	}
	return port, nil
}

// Flows returns the engine's steering table, nil when the flow tier is
// disabled. Callers use it for scrape-path queries (fairness summaries,
// Lookup) — the admission path is Offer with Request.Steered.
func (e *Engine) Flows() *flowtable.Table { return e.flows }

// AdvanceFlowEpoch bumps the flow table's eviction epoch (no-op without
// a flow tier). Drive it from a coarse clock — cmd/lcfd ticks it once a
// second.
func (e *Engine) AdvanceFlowEpoch() {
	if e.flows != nil {
		e.flows.AdvanceEpoch()
	}
}

// EvictIdleFlows evicts flows idle for more than maxIdle epochs and
// returns the count (0 without a flow tier). Eviction forgets steering
// state only; frames already queued are untouched, so frame
// conservation is unaffected.
func (e *Engine) EvictIdleFlows(maxIdle uint32) int {
	if e.flows == nil {
		return 0
	}
	return e.flows.EvictIdle(maxIdle)
}

// FlowSnapshot is the flow tier's section of Snapshot, present only
// when the tier is enabled.
type FlowSnapshot struct {
	Policy           string  `json:"policy"`
	Capacity         int     `json:"capacity"`
	Rehome           string  `json:"rehome"`
	Resident         int64   `json:"resident"`
	Steered          int64   `json:"steered"`
	Inserted         int64   `json:"inserted"`
	Evicted          int64   `json:"evicted"`
	Rebalanced       int64   `json:"rebalanced,omitempty"`
	Rejected         int64   `json:"rejected,omitempty"`
	Epoch            uint32  `json:"epoch"`
	BacklogImbalance float64 `json:"backlog_imbalance"`
}

// flowSnapshot captures the flow tier's counters, nil when disabled.
func (e *Engine) flowSnapshot() *FlowSnapshot {
	if e.flows == nil {
		return nil
	}
	st := e.flows.Stats()
	rehome := flowtable.KeepOnDown
	if e.cfg.FaultPolicy == DropStranded {
		rehome = flowtable.RehomeOnDown
	}
	return &FlowSnapshot{
		Policy:           e.flows.PolicyName(),
		Capacity:         e.cfg.Flows,
		Rehome:           rehome.String(),
		Resident:         st.Resident,
		Steered:          st.Steered,
		Inserted:         st.Inserted,
		Evicted:          st.Evicted,
		Rebalanced:       st.Rebalanced,
		Rejected:         st.Rejected,
		Epoch:            e.flows.Epoch(),
		BacklogImbalance: flowtable.BacklogImbalance(flowView{e}),
	}
}

// registerFlow publishes the lcf_flow_* metrics; no-op when the flow
// tier is disabled so a flow-free engine's scrape is unchanged. Called
// by Register. The counter callbacks fold the table's per-shard
// counters at scrape time (brief per-shard locks — scrape path, not
// slot path).
func (e *Engine) registerFlow(r *obs.Registry) {
	if e.flows == nil {
		return
	}
	tbl := e.flows
	r.GaugeVec("lcf_flow_info", "Static flow-tier info; value is always 1. Labels carry the steering policy, capacity and rehome disposition.", func() []obs.Sample {
		rehome := flowtable.KeepOnDown
		if e.cfg.FaultPolicy == DropStranded {
			rehome = flowtable.RehomeOnDown
		}
		return []obs.Sample{{
			Labels: obs.Labels("policy", tbl.PolicyName(), "capacity", fmt.Sprint(e.cfg.Flows), "rehome", rehome.String()),
			Value:  1,
		}}
	})
	r.Gauge("lcf_flow_resident", "Flows currently resident in the steering table.", func() float64 {
		return float64(tbl.Resident())
	})
	r.Counter("lcf_flow_steered_total", "Steer-stage resolutions: steered requests that reached the flow table (sticky hits plus new admissions).", func() int64 {
		return tbl.Stats().Steered
	})
	r.Counter("lcf_flow_admitted_total", "New flows admitted to the table (steering decisions made by the policy).", func() int64 {
		return tbl.Stats().Inserted
	})
	r.Counter("lcf_flow_evicted_total", "Flows removed from the table (idle-epoch sweeps plus explicit evictions).", func() int64 {
		return tbl.Stats().Evicted
	})
	r.Counter("lcf_flow_rebalanced_total", "Resident flows re-steered off a down port (RehomeOnDown pairing only).", func() int64 {
		return tbl.Stats().Rebalanced
	})
	r.Counter("lcf_flow_rejected_total", "Steered requests refused by the steer stage because the steering table was full.", func() int64 {
		return tbl.Stats().Rejected
	})
	r.Gauge("lcf_flow_epoch", "Current flow-eviction epoch (advanced on the daemon's eviction clock, once a second in lcfd).", func() float64 {
		return float64(tbl.Epoch())
	})
	r.Gauge("lcf_flow_backlog_imbalance", "Max/mean per-input VOQ backlog over up ports — the load spread the po2 policy minimizes (1 = perfectly even, 0 = idle).", func() float64 {
		return flowtable.BacklogImbalance(flowView{e})
	})
}
