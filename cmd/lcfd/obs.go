package main

import (
	"io"
	"net/http"
	"net/http/pprof"
	rtrace "runtime/trace"
	"strconv"
	"time"

	"repro/internal/obs"
)

// traceRing is the capacity of the slot-event ring in events: with one
// decision event per slot that ran, the last 4 096 slots, about 0.8 s of
// a busy switch at the default 200 µs slot.
const traceRing = 4096

// buildRegistry assembles the daemon's Prometheus view: the engine's
// lcf_engine_*/lcf_grants_*/histogram metrics, the tracer's lcf_trace_*
// metrics, and the TCP front-end's own counters. Every name here must be
// documented in OBSERVABILITY.md (TestMetricsDocumented enforces both
// directions).
func (s *server) buildRegistry() *obs.Registry {
	r := obs.NewRegistry()
	s.engine.Register(r)
	s.tracer.Register(r)

	r.Gauge("lcf_uptime_seconds", "Seconds since the daemon started.", func() float64 {
		return time.Since(s.started).Seconds()
	})
	r.Counter("lcf_server_accepted_total", "Connections granted a port.", s.accepted.Value)
	r.Counter("lcf_server_rejected_total", "Connections refused because every port was taken.", s.rejected.Value)
	r.Counter("lcf_server_nacks_total", "Nack frames sent for backpressured admissions.", s.nacksSent.Value)
	r.Counter("lcf_server_frames_written_total", "Delivered frames a connection's socket write accepted.", s.framesWritten.Value)
	r.Counter("lcf_server_dropped_no_client_total", "Delivered frames dropped because no connection owned the output port or its socket write failed.", s.droppedNoClient.Value)
	r.Counter("lcf_server_protocol_errors_total", "Connections dropped for malformed or unexpected frames.", s.protocolErrors.Value)
	r.Gauge("lcf_server_active_connections", "Connections currently holding a port.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		active := 0
		for _, c := range s.ports {
			if c != nil {
				active++
			}
		}
		return float64(active)
	})
	return r
}

// handleMetrics serves the live counters: the JSON document by default,
// the registry's Prometheus exposition when the Accept header asks for
// text/plain.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	obs.ServeMetrics(w, r, s.registry, func() any { return s.payload() })
}

// handleTrace exposes the slot-event ring: GET drains the current window
// as JSONL (one event per line, newest window, oldest first), POST with
// ?enabled=true|false toggles recording at runtime.
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	obs.ServeTrace(w, r, func(w io.Writer) error { return obs.WriteJSONL(w, s.tracer.Drain()) }, s.tracer)
}

// debugMux builds the -debug-addr handler: the standard pprof surface
// plus /debug/trace, which streams a runtime execution trace for
// ?seconds=N (default 1, capped at 60) — `go tool trace` reads the
// result. On a separate listener so profiling endpoints are never exposed
// on the metrics port by accident.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/trace", handleExecTrace)
	return mux
}

func handleExecTrace(w http.ResponseWriter, r *http.Request) {
	seconds := 1
	if v := r.URL.Query().Get("seconds"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 || n > 60 {
			http.Error(w, "?seconds must be in [1,60]", http.StatusBadRequest)
			return
		}
		seconds = n
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="lcfd.trace"`)
	if err := rtrace.Start(w); err != nil {
		// Only one execution trace can run at a time.
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	defer rtrace.Stop()
	select {
	case <-time.After(time.Duration(seconds) * time.Second):
	case <-r.Context().Done():
	}
}
