// Package obs is the observability layer shared by the offline simulator
// (internal/simswitch) and the live engine (internal/runtime): Prometheus
// text exposition over the repository's lock-free counters, and a bounded
// slot-event trace ring that records per-decision scheduler state.
//
// The paper's evaluation (Figures 8–12) argues from decision-level
// evidence — how large the matchings are, how often the round-robin
// diagonal overrides the least-choice rule, how deep the VOQs run — not
// just end-to-end throughput. This package makes the same evidence
// available from a running switch:
//
//   - Registry renders any set of registered counters, gauges and
//     histograms (built over internal/metrics' atomic types) in the
//     Prometheus text exposition format 0.0.4, so a live lcfd can be
//     scraped by a stock Prometheus server. ServeMetrics is every
//     daemon's /metrics handler, negotiating (NegotiateMetricsFormat)
//     between that format and the daemon's JSON document, and
//     ParsePrometheus reads the exposition back (cmd/lcfload uses it to
//     report switch-side counters next to its client-side measurements).
//   - Tracer is a preallocated, lock-free ring of per-slot trace events:
//     request-matrix cardinality and the slot's sched.GrantSet — for
//     schedulers implementing sched.Explainer, i.e. the LCF variants,
//     with the decision rule and LCF priority level behind every grant —
//     plus fault, flow and class events. Every emitter writes through one
//     path with atomic stores only (zero heap allocations); a disabled
//     tracer costs exactly one atomic load per event, so the hooks can
//     stay compiled into the hot path permanently. ServeTrace is every
//     daemon's /trace handler, and cmd/lcftrace drains the ring
//     (directly or over lcfd's /trace endpoint) into JSONL or a
//     human-readable timeline.
//
// OBSERVABILITY.md documents every exported metric name, the trace event
// schema, and the operational runbook; a test in cmd/lcfd fails if the
// registry and that document drift apart.
package obs
