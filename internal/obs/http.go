package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// ServeMetrics serves a daemon's /metrics, content-negotiated: doc's
// value as indented JSON by default (the format the endpoint has always
// spoken), reg's Prometheus text exposition 0.0.4 when the Accept header
// prefers text/plain. Only GET and HEAD (headers only) are meaningful on
// a read-only resource; anything else is 405 with the Allow header set.
func ServeMetrics(w http.ResponseWriter, r *http.Request, reg *Registry, doc func() any) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if NegotiateMetricsFormat(r) == FormatPrometheus {
		w.Header().Set("Content-Type", ContentTypePrometheus)
		if r.Method == http.MethodGet {
			_ = reg.WritePrometheus(w) // the writer is the socket: a failed write leaves nothing to send
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if r.Method == http.MethodGet {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(doc()) // as above
	}
}

// ServeTrace serves a daemon's /trace: GET writes its slot-event rings as
// JSONL through drain (the format cmd/lcftrace reads; draining does not
// consume, so two scrapes may overlap), POST ?enabled=true|false turns
// recording on or off on every tracer at once, anything else is 405.
func ServeTrace(w http.ResponseWriter, r *http.Request, drain func(io.Writer) error, tracers ...*Tracer) {
	switch r.Method {
	case http.MethodGet:
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = drain(w) // the writer is the socket: a failed write leaves nothing to send
	case http.MethodPost:
		enabled, err := strconv.ParseBool(r.URL.Query().Get("enabled"))
		if err != nil {
			http.Error(w, "POST /trace needs ?enabled=true or ?enabled=false", http.StatusBadRequest)
			return
		}
		for _, tr := range tracers {
			tr.SetEnabled(enabled)
		}
		fmt.Fprintf(w, "tracing enabled=%v\n", enabled)
	default:
		w.Header().Set("Allow", "GET, POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}
