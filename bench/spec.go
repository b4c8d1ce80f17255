package main

import "encoding/json"

// The benchmark's contract, as data: workloads, end-to-end metrics with
// their regression bounds, per-layer metrics. BENCHMARK.json at the
// repository root is this table printed by -print-spec (the smoke test
// fails when the two drift), and -compare reads bounds and directions
// from here.

const (
	lower  = "lower"
	higher = "higher"
)

// runSeconds is how long one run measures when the driver passes
// --seconds from BENCHMARK.json.
const runSeconds = 15

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type endToEndSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type perLayerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Exact marks a count that must repeat bit for bit for one seed;
	// -compare checks it for equality instead of against a spread.
	Exact bool `json:"-"`
}

var workloadSpecs = []workloadSpec{
	{"sim_fig12a_n16", "the paper's Figure 12a cell (n=16, load 0.9, every Figure 12 scheduler) through lcf.Simulate: the scheduler is most of the slot, runtime/lcfd/clint do nothing"},
	{"engine_voq_n64", "one lockstep runtime.Engine at n=64, Admit/Tick/drain: runtime's locks, channel sends and gauges are most of the slot and the scheduler a minority, the reverse of the sim workload"},
	{"engine_class_n64", "same engine and traffic through AdmitClass with three PIFO classes and the deadline ranker: the other admission door, and the late rank binding the rt class's tail depends on"},
	{"wire_plain_w64", "lcfd over TCP loopback, 2 closed-loop clients with a 64-frame window of plain data frames: bare forwarding at the only (smallest) frame size, sockets and the output pump do the work"},
	{"wire_flow_w64", "same daemon with -flows, clients sending flow frames over 100000 Zipf(1.0) flow ids: the flow door and steering table, whose cost is the gap to wire_plain_w64"},
}

// Every workload reports every end-to-end metric (the driver's contract),
// so each has one reading per workload kind; bench/README.md has the
// table. Bounds are shares of the parent's median. Every host-time
// figure carries the widest bound the contract allows: on the 2-vCPU
// sandbox this was written on, ten runs of one commit spread by 5–20 %
// of their median (interquartile) depending on what the host's other
// tenants were doing, and a bound below the spread would reject the
// commit against itself. The two delay metrics are slot-domain and exact
// on the sim and engine workloads (-compare checks them for equality);
// their bound is wide only because the wire workloads read them in host
// time.
var endToEndSpecs = []endToEndSpec{
	{"setup_s", "s", lower, 0.25},
	{"slots_per_s", "1/s", higher, 0.25},
	{"frames_per_s", "1/s", higher, 0.25},
	{"rtt_p50_us", "us", lower, 0.25},
	{"rtt_p99_us", "us", lower, 0.25},
	{"delay_mean_slots", "slots", lower, 0.25},
	{"delay_p99_slots", "slots", lower, 0.25},
	{"mem_mb", "MB", lower, 0.10},
	{"ok_share", "share", higher, 0.001},
}

var perLayerSpecs = []perLayerSpec{
	{"sched.decide_ns", "ns", lower, false},
	{"sched.calls", "count", lower, true},
	{"sched.grants_per_call", "count", higher, true},
	{"sched.invalid_matches", "count", lower, true},
	{"traffic.gen_ns", "ns", lower, false},
	{"simswitch.slot_ns", "ns", lower, false},
	{"simswitch.self_ns", "ns", lower, false},
	{"simswitch.throughput", "share", higher, true},
	{"simswitch.dropped", "count", lower, true},
	{"switchcore.slot_ns", "ns", lower, false},
	{"switchcore.self_ns", "ns", lower, false},
	{"runtime.admit_ns", "ns", lower, false},
	{"runtime.tick_ns", "ns", lower, false},
	{"runtime.tick_self_ns", "ns", lower, false},
	{"runtime.overhead_ns", "ns", lower, false},
	{"runtime.drain_ns", "ns", lower, false},
	{"runtime.allocs_per_slot", "count", lower, false},
	{"runtime.bytes_per_slot", "B", lower, false},
	{"runtime.slot_p99_ns", "ns", lower, false},
	{"runtime.backlog_mean", "frames", lower, true},
	{"runtime.admitted", "count", higher, true},
	{"runtime.delivered", "count", higher, true},
	{"runtime.refused", "count", lower, true},
	{"runtime.class_violations", "count", lower, true},
	{"pifo.pushpop_ns", "ns", lower, false},
	{"flowtable.steer_ns", "ns", lower, false},
	{"flowtable.hit_share", "share", higher, true},
	{"flowtable.resident", "count", lower, true},
	{"clint.data_codec_ns", "ns", lower, false},
	{"clint.flow_codec_ns", "ns", lower, false},
	{"lcfd.slots_per_s", "1/s", higher, false},
	{"lcfd.frames_per_slot", "count", higher, false},
	{"lcfd.slot_p50_ns", "ns", lower, false},
	{"lcfd.slot_p99_ns", "ns", lower, false},
	{"lcfd.match_ratio", "share", higher, false},
	{"lcfd.nacks", "count", lower, false},
	{"lcfd.protocol_errors", "count", lower, false},
	{"lcfd.dropped_no_client", "count", lower, false},
	{"lcfd.cpu_us_per_frame", "us", lower, false},
	{"lcfd.cpu_busy_share", "share", lower, false},
	{"bench.client_cpu_share", "share", lower, false},
	{"bench.write_ns", "ns", lower, false},
	{"bench.wait_first_ns", "ns", lower, false},
	{"bench.read_ns", "ns", lower, false},
	{"bench.self_ns", "ns", lower, false},
	{"bench.segment_spread", "share", lower, false},
	{"bench.trace_overhead_share", "share", lower, false},
}

// exactEndToEnd names the end-to-end metrics that are slot-domain and so
// repeat exactly for one seed on the sim and engine workloads.
var exactEndToEnd = map[string]bool{"delay_mean_slots": true, "delay_p99_slots": true}

// specJSON renders BENCHMARK.json.
func specJSON() ([]byte, error) {
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []endToEndSpec `json:"end_to_end"`
		PerLayer   []perLayerSpec `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   endToEndSpecs,
		PerLayer:   perLayerSpecs,
	}
	return json.MarshalIndent(doc, "", "  ")
}
