package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/clint"
	"repro/internal/datapath"
	"repro/internal/obs"
	"repro/internal/pifo"
	rt "repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/sched/registry"
)

// newTestServer builds a lockstep daemon front-end (no ticker, no
// listener) with a few slots of traffic already through it.
func newTestServer(t *testing.T, ringCap int) *server {
	t.Helper()
	return newTestServerDP(t, ringCap, datapath.VOQ)
}

// newTestServerDP is newTestServer with an explicit datapath, mirroring
// the -datapath flag: the CICQ organization takes no central scheduler.
func newTestServerDP(t *testing.T, ringCap int, dpName string) *server {
	t.Helper()
	const n = 4
	var s sched.Scheduler
	if dpName != datapath.CICQ {
		var err error
		s, err = registry.New("lcf_central_rr", n, sched.Options{Iterations: 4, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
	}
	var tracer *obs.Tracer
	if ringCap > 0 {
		tracer = obs.NewTracer(n, ringCap)
		tracer.Enable()
	}
	engine, err := rt.New(rt.Config{N: n, Scheduler: s, Datapath: dpName, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(engine, n)
	srv.tracer = tracer
	srv.registry = srv.buildRegistry()
	for slot := 0; slot < 3; slot++ {
		for i := 0; i < n; i++ {
			if err := engine.Admit(i, (i+slot)%n, uint64(slot), 0); err != nil {
				t.Fatal(err)
			}
		}
		engine.Tick()
	}
	return srv
}

// idlePorts is the width of every newIdleServer.
const idlePorts = 4

// newIdleServer builds a lockstep daemon front-end (no ticker, no
// listener) on an idlePorts-wide engine that nothing has touched yet; cfg
// carries what differs from the defaults — a tier, a capacity, or a
// SlotPeriod, which makes the engine a live one for the caller to Start.
func newIdleServer(t testing.TB, cfg rt.Config) *server {
	t.Helper()
	s, err := registry.New("lcf_central_rr", idlePorts, sched.Options{Iterations: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg.N, cfg.Scheduler = idlePorts, s
	engine, err := rt.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(engine, idlePorts)
	srv.registry = srv.buildRegistry()
	return srv
}

// newTestServerFlows is an idle server with the flow front tier enabled,
// mirroring -flows/-flow-policy.
func newTestServerFlows(t *testing.T, flows int, policy string) *server {
	t.Helper()
	return newIdleServer(t, rt.Config{Flows: flows, FlowPolicy: policy})
}

// newTestServerClasses is an idle server with the PIFO class tier
// enabled, mirroring -classes/-rank.
func newTestServerClasses(t *testing.T, rank string) *server {
	t.Helper()
	classes, err := pifo.ParseClasses("rt:0:4:16,bulk:2:1")
	if err != nil {
		t.Fatal(err)
	}
	return newIdleServer(t, rt.Config{Classes: classes, Rank: rank})
}

func TestMetricsContentNegotiation(t *testing.T) {
	srv := newTestServer(t, 64)

	// Default (no Accept header): the JSON document this endpoint has
	// always served, now with an explicit Content-Type.
	rec := httptest.NewRecorder()
	srv.handleMetrics(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("default Content-Type = %q", ct)
	}
	var p metricsPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatalf("JSON body does not parse: %v", err)
	}
	if p.Engine.Slot != 3 || p.N != 4 {
		t.Errorf("payload slot=%d n=%d", p.Engine.Slot, p.N)
	}

	// Accept: text/plain selects the Prometheus exposition.
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	rec = httptest.NewRecorder()
	srv.handleMetrics(rec, req)
	if ct := rec.Header().Get("Content-Type"); ct != obs.ContentTypePrometheus {
		t.Errorf("Prometheus Content-Type = %q", ct)
	}
	scrape, err := obs.ParsePrometheus(rec.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	if v, ok := scrape.Value("lcf_engine_slots_total"); !ok || v != 3 {
		t.Errorf("lcf_engine_slots_total = %g,%v", v, ok)
	}
	if v, ok := scrape.Value("lcf_trace_enabled"); !ok || v != 1 {
		t.Errorf("lcf_trace_enabled = %g,%v", v, ok)
	}

	// A JSON-preferring Accept still gets JSON.
	req = httptest.NewRequest(http.MethodGet, "/metrics", nil)
	req.Header.Set("Accept", "application/json, text/plain")
	rec = httptest.NewRecorder()
	srv.handleMetrics(rec, req)
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Accept json Content-Type = %q", ct)
	}

	// HEAD: headers only.
	req = httptest.NewRequest(http.MethodHead, "/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	rec = httptest.NewRecorder()
	srv.handleMetrics(rec, req)
	if rec.Body.Len() != 0 || rec.Header().Get("Content-Type") != obs.ContentTypePrometheus {
		t.Errorf("HEAD wrote %d body bytes, Content-Type %q", rec.Body.Len(), rec.Header().Get("Content-Type"))
	}

	// Writes are not a thing /metrics does.
	rec = httptest.NewRecorder()
	srv.handleMetrics(rec, httptest.NewRequest(http.MethodPost, "/metrics", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics = %d, want 405", rec.Code)
	}
	if allow := rec.Header().Get("Allow"); allow != "GET, HEAD" {
		t.Errorf("Allow = %q", allow)
	}
}

func TestTraceEndpoint(t *testing.T) {
	srv := newTestServer(t, 64)

	rec := httptest.NewRecorder()
	srv.handleTrace(rec, httptest.NewRequest(http.MethodGet, "/trace", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	evs, err := obs.ReadJSONL(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 3 {
		t.Fatalf("drained %d events, want 3", len(evs))
	}
	for _, g := range evs[0].Grants {
		if g.Rule == "" || g.Choices == 0 {
			t.Errorf("grant lacks attribution: %+v", g)
		}
	}

	// Toggle off, then a disabled engine slot records nothing new.
	rec = httptest.NewRecorder()
	srv.handleTrace(rec, httptest.NewRequest(http.MethodPost, "/trace?enabled=false", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /trace?enabled=false = %d: %s", rec.Code, rec.Body.String())
	}
	srv.engine.Tick()
	if got := srv.tracer.Emitted(); got != 3 {
		t.Errorf("disabled tracer emitted %d events, want 3", got)
	}

	rec = httptest.NewRecorder()
	srv.handleTrace(rec, httptest.NewRequest(http.MethodPost, "/trace?enabled=bogus", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bogus toggle = %d, want 400", rec.Code)
	}
	rec = httptest.NewRecorder()
	srv.handleTrace(rec, httptest.NewRequest(http.MethodDelete, "/trace", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /trace = %d, want 405", rec.Code)
	}
}

func TestTraceEndpointWithoutRing(t *testing.T) {
	srv := newTestServer(t, 0)
	rec := httptest.NewRecorder()
	srv.handleTrace(rec, httptest.NewRequest(http.MethodGet, "/trace", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("GET /trace without a ring = %d, want 404", rec.Code)
	}
}

func TestDebugMux(t *testing.T) {
	mux := debugMux()

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/cmdline", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("pprof cmdline = %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/trace?seconds=0", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("seconds=0 = %d, want 400", rec.Code)
	}

	// A cancelled request context ends the capture immediately, so the
	// happy path is testable without sleeping out the window.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodGet, "/debug/trace?seconds=60", nil).WithContext(ctx)
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
		t.Errorf("execution trace: code %d, %d bytes", rec.Code, rec.Body.Len())
	}
}

func TestFaultEndpoint(t *testing.T) {
	srv := newTestServer(t, 0)

	post := func(query string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.handleFault(rec, httptest.NewRequest(http.MethodPost, "/fault"+query, nil))
		return rec
	}
	state := func() []portLinkState {
		rec := httptest.NewRecorder()
		srv.handleFault(rec, httptest.NewRequest(http.MethodGet, "/fault", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /fault = %d: %s", rec.Code, rec.Body.String())
		}
		var states []portLinkState
		if err := json.Unmarshal(rec.Body.Bytes(), &states); err != nil {
			t.Fatalf("GET /fault body does not parse: %v", err)
		}
		return states
	}

	if got := state(); len(got) != 4 || got[2] != (portLinkState{Port: 2}) {
		t.Fatalf("initial state = %+v", got)
	}

	// Fail both links of port 2, then recover just the output.
	if rec := post("?port=2&state=down"); rec.Code != http.StatusOK {
		t.Fatalf("POST down = %d: %s", rec.Code, rec.Body.String())
	}
	if got := state()[2]; !got.InputDown || !got.OutputDown {
		t.Fatalf("after down: %+v", got)
	}
	if rec := post("?port=2&dir=output&state=up"); rec.Code != http.StatusOK {
		t.Fatalf("POST output up = %d: %s", rec.Code, rec.Body.String())
	}
	if got := state()[2]; !got.InputDown || got.OutputDown {
		t.Fatalf("after output recovery: %+v", got)
	}

	// The POST response body itself carries the updated state document.
	rec := post("?port=2&dir=input&state=up")
	var states []portLinkState
	if err := json.Unmarshal(rec.Body.Bytes(), &states); err != nil {
		t.Fatalf("POST body does not parse: %v", err)
	}
	if states[2].InputDown || states[2].OutputDown {
		t.Fatalf("POST response state = %+v", states[2])
	}

	// Parameter validation: each bad request is a 400.
	for _, q := range []string{"", "?port=9&state=down", "?port=-1&state=down", "?port=x&state=down", "?port=1", "?port=1&state=sideways", "?port=1&dir=diagonal&state=down"} {
		if rec := post(q); rec.Code != http.StatusBadRequest {
			t.Errorf("POST /fault%s = %d, want 400", q, rec.Code)
		}
	}
	rec = httptest.NewRecorder()
	srv.handleFault(rec, httptest.NewRequest(http.MethodDelete, "/fault", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /fault = %d, want 405", rec.Code)
	}
}

// TestFlowsEndpoint pins the GET /flows contract: the flow tier's
// counters plus the fairness summary on a flow-enabled daemon, 404 on a
// flow-free one, 405 for writes.
func TestFlowsEndpoint(t *testing.T) {
	srv := newTestServerFlows(t, 1024, "po2")
	for id := uint64(0); id < 16; id++ {
		if _, err := srv.engine.Offer(rt.Request{Dst: int(id) % 4, Seq: id, Flow: id, Steered: true}); err != nil {
			t.Fatal(err)
		}
	}

	rec := httptest.NewRecorder()
	srv.handleFlows(rec, httptest.NewRequest(http.MethodGet, "/flows", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /flows = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var p flowsPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatalf("/flows body does not parse: %v", err)
	}
	if p.Flows == nil || p.Flows.Policy != "po2" || p.Flows.Resident != 16 {
		t.Fatalf("/flows snapshot = %+v", p.Flows)
	}
	if p.Fairness.Flows != 16 || p.Fairness.Jain != 1 {
		t.Fatalf("/flows fairness = %+v (every flow served once, Jain must be 1)", p.Fairness)
	}

	rec = httptest.NewRecorder()
	srv.handleFlows(rec, httptest.NewRequest(http.MethodPost, "/flows", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /flows = %d, want 405", rec.Code)
	}

	// A flow-free daemon has no /flows resource.
	rec = httptest.NewRecorder()
	newTestServer(t, 0).handleFlows(rec, httptest.NewRequest(http.MethodGet, "/flows", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("GET /flows without -flows = %d, want 404", rec.Code)
	}
}

// TestReadLoopFlowFrames drives flow data frames through the wire-facing
// read loop: each frame is steered and admitted by flow id, sticky per
// flow, and the same frames against a flow-free daemon are a protocol
// error (configuration mismatch, not backpressure).
func TestReadLoopFlowFrames(t *testing.T) {
	srv := newTestServerFlows(t, 1024, "hash")
	host, sw := net.Pipe()
	defer host.Close()
	c := newClient(sw)
	if p := srv.assign(c); p != 0 {
		t.Fatalf("assign = %d", p)
	}
	done := make(chan struct{})
	go func() {
		srv.readLoop(c)
		close(done)
	}()

	const frames = 24
	for k := 0; k < frames; k++ {
		f := clint.FlowData{Flow: uint64(k % 8), Dst: uint8(k % 4), Seq: uint64(k)}
		if _, err := host.Write(f.Encode()); err != nil {
			t.Fatal(err)
		}
	}
	host.Close() // EOF retires the read loop once every frame is consumed
	<-done

	st := srv.engine.Flows().Stats()
	if st.Resident != 8 || st.Steered != frames {
		t.Fatalf("resident %d steered %d, want 8 resident / %d steered", st.Resident, st.Steered, frames)
	}
	if got := srv.engine.Snapshot().Admitted; got != frames {
		t.Fatalf("admitted %d frames, want %d", got, frames)
	}

	// The same wire bytes against a flow-free daemon: protocol error.
	plain := newTestServer(t, 0)
	host2, sw2 := net.Pipe()
	defer host2.Close()
	c2 := newClient(sw2)
	plain.assign(c2)
	done2 := make(chan struct{})
	go func() {
		plain.readLoop(c2)
		close(done2)
	}()
	if _, err := host2.Write(clint.FlowData{Flow: 1, Dst: 1, Seq: 1}.Encode()); err != nil {
		t.Fatal(err)
	}
	<-done2
	if got := plain.protocolErrors.Value(); got != 1 {
		t.Fatalf("protocol errors = %d, want 1", got)
	}
}

// TestReadLoopClassFrames drives class data frames through the
// wire-facing read loop: each frame is admitted into the PIFO tier at
// the connection's port with its class label, and the same frames
// against a classless daemon are a protocol error (configuration
// mismatch, not backpressure), as is an out-of-range class index.
func TestReadLoopClassFrames(t *testing.T) {
	srv := newTestServerClasses(t, "strict")
	host, sw := net.Pipe()
	defer host.Close()
	c := newClient(sw)
	if p := srv.assign(c); p != 0 {
		t.Fatalf("assign = %d", p)
	}
	done := make(chan struct{})
	go func() {
		srv.readLoop(c)
		close(done)
	}()

	const frames = 24
	for k := 0; k < frames; k++ {
		f := clint.ClassData{Class: uint8(k % 2), Dst: uint8(k % 4), Seq: uint64(k)}
		if _, err := host.Write(f.Encode()); err != nil {
			t.Fatal(err)
		}
	}
	host.Close() // EOF retires the read loop once every frame is consumed
	<-done

	snap := srv.engine.Snapshot()
	if snap.Admitted != frames {
		t.Fatalf("admitted %d frames, want %d", snap.Admitted, frames)
	}
	if snap.Classes == nil {
		t.Fatal("Snapshot.Classes nil after class admissions")
	}
	var byClass int64
	for _, cs := range snap.Classes.Classes {
		byClass += cs.Admitted
	}
	if byClass != frames {
		t.Fatalf("class ledger admitted %d, want %d", byClass, frames)
	}

	// An out-of-range class index on a class-enabled daemon: protocol error.
	host2, sw2 := net.Pipe()
	defer host2.Close()
	c2 := newClient(sw2)
	srv.release(c)
	if p := srv.assign(c2); p != 0 {
		t.Fatalf("reassign = %d", p)
	}
	done2 := make(chan struct{})
	go func() {
		srv.readLoop(c2)
		close(done2)
	}()
	if _, err := host2.Write(clint.ClassData{Class: 9, Dst: 1, Seq: 1}.Encode()); err != nil {
		t.Fatal(err)
	}
	<-done2
	if got := srv.protocolErrors.Value(); got != 1 {
		t.Fatalf("protocol errors = %d, want 1", got)
	}

	// The same wire bytes against a classless daemon: protocol error.
	plain := newTestServer(t, 0)
	host3, sw3 := net.Pipe()
	defer host3.Close()
	c3 := newClient(sw3)
	plain.assign(c3)
	done3 := make(chan struct{})
	go func() {
		plain.readLoop(c3)
		close(done3)
	}()
	if _, err := host3.Write(clint.ClassData{Class: 0, Dst: 1, Seq: 1}.Encode()); err != nil {
		t.Fatal(err)
	}
	<-done3
	if got := plain.protocolErrors.Value(); got != 1 {
		t.Fatalf("protocol errors = %d, want 1", got)
	}
}

// TestPortReclaim pins the disconnect/reconnect link-state contract:
// release fails the departed client's links so the arbiter stops wasting
// grants on an unconsumed output, and a later assign on the same port
// recovers them for the new owner.
func TestPortReclaim(t *testing.T) {
	srv := newTestServer(t, 0)

	a := &client{}
	if p := srv.assign(a); p != 0 {
		t.Fatalf("first assign = %d, want port 0", p)
	}
	srv.release(a)
	if in, out := srv.engine.LinkDown(0); !in || !out {
		t.Fatalf("after release: input down=%v output down=%v, want both down", in, out)
	}
	if srv.lookup(0) != nil {
		t.Fatal("released port still owned")
	}

	b := &client{}
	if p := srv.assign(b); p != 0 {
		t.Fatalf("reassign = %d, want reclaimed port 0", p)
	}
	if in, out := srv.engine.LinkDown(0); in || out {
		t.Fatalf("after reclaim: input down=%v output down=%v, want both up", in, out)
	}

	// A stale release (old client object racing a reassign) must not fail
	// the new owner's links.
	srv.release(a)
	if in, out := srv.engine.LinkDown(0); in || out {
		t.Fatal("stale release failed the reclaimed port's links")
	}
	if srv.lookup(0) != b {
		t.Fatal("stale release evicted the new owner")
	}
}

// TestWriteLoopBatches pins the batched writer's contract, which the
// output pump now keeps: a burst larger than one batch, waiting on an
// engine output before the pump starts, reaches the peer intact, in order
// and decodable through coalesced writes; once the client is gone the pump
// drops and counts what the engine still delivers instead of blocking on
// it, and retires when the engine closes.
func TestWriteLoopBatches(t *testing.T) {
	srv := newTestServer(t, 0)
	for j := 0; j < srv.n; j++ {
		for len(srv.engine.Output(j)) > 0 { // newTestServer's own traffic
			<-srv.engine.Output(j)
		}
	}
	delivered := srv.engine.Snapshot().Delivered

	// Preload a burst larger than one batch on output 0, so the first
	// write coalesces maxWriteBatch frames and the remainder rides the
	// next one.
	const frames = maxWriteBatch + 17
	preload := func(count int, seq0 uint64) (want []byte) {
		for k := 0; k < count; k++ {
			seq := seq0 + uint64(k)
			if err := srv.engine.Admit(1, 0, seq, seq); err != nil {
				t.Fatal(err)
			}
			srv.engine.Tick()
			want = append(want, clint.Data{Src: 1, Dst: 0, Seq: seq, Stamp: seq}.Encode()...)
		}
		return want
	}
	want := preload(frames, 0)
	if got := len(srv.engine.Output(0)); got != frames {
		t.Fatalf("%d frames waiting on output 0, want %d", got, frames)
	}

	host, sw := tcpPair(t)
	c := newClient(sw)
	if p := srv.assign(c); p != 0 {
		t.Fatalf("assign = %d", p)
	}
	srv.wg.Add(1)
	go srv.outputPump(0)

	got := make([]byte, len(want))
	if _, err := io.ReadFull(host, got); err != nil {
		t.Fatalf("reading the burst back: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("burst arrived corrupted or out of order")
	}
	for off := 0; off < len(got); off += clint.DataLen {
		if _, err := clint.DecodeData(got[off : off+clint.DataLen]); err != nil {
			t.Fatalf("frame at offset %d does not decode: %v", off, err)
		}
	}

	// The client goes. Hold fault policy (rt.Config's default) keeps the
	// port's queued frames, so detach it by hand and feed the pump more.
	srv.release(c)
	sw.Close()
	srv.engine.Recover(0)
	preload(5, frames)
	retired := make(chan struct{})
	go func() {
		srv.engine.Close()
		srv.wg.Wait()
		close(retired)
	}()
	select {
	case <-retired:
	case <-time.After(5 * time.Second):
		t.Fatal("output pump did not retire after its client went and the engine closed")
	}
	if w, d := srv.framesWritten.Value(), srv.droppedNoClient.Value(); w != frames || d != 5 {
		t.Fatalf("written %d dropped %d, want %d and 5", w, d, frames)
	}
	if got := srv.engine.Snapshot().Delivered - delivered; got != frames+5 {
		t.Fatalf("engine delivered %d, want %d", got, frames+5)
	}
}

// TestMetricsDocumented diffs the daemon's metric registry against
// OBSERVABILITY.md in both directions: every registered metric must be
// documented, and every documented lcf_* base name must exist in the
// registry. Renaming or adding a metric without updating the doc fails
// here; so does documenting vapor.
func TestMetricsDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../OBSERVABILITY.md")
	if err != nil {
		t.Fatalf("OBSERVABILITY.md must ship with the daemon: %v", err)
	}
	// The registry's contents depend on the datapath (the CICQ engine
	// adds its cicq_* instruments), so the documented set is diffed
	// against the union over both organizations.
	// ... and a flow-enabled engine adds the lcf_flow_* tier.
	registered := newTestServer(t, 64).registry.Names()
	registered = append(registered, newTestServerDP(t, 64, datapath.CICQ).registry.Names()...)
	registered = append(registered, newTestServerFlows(t, 1024, "po2").registry.Names()...)
	// ... and a class-enabled engine adds the lcf_class_* tier.
	registered = append(registered, newTestServerClasses(t, "deadline").registry.Names()...)

	// Documented names are backticked `lcf_*`/`cicq_*` tokens. Histogram
	// series suffixes (_bucket/_sum/_count) and label-carrying examples
	// refer to a base metric and are not names of their own.
	re := regexp.MustCompile("`((?:lcf|cicq)_[a-z0-9_]+)`")
	documented := map[string]bool{}
	for _, m := range re.FindAllStringSubmatch(string(doc), -1) {
		name := m[1]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			name = strings.TrimSuffix(name, suffix)
		}
		documented[name] = true
	}
	if len(documented) == 0 {
		t.Fatal("OBSERVABILITY.md documents no `lcf_*` metrics")
	}

	regSet := map[string]bool{}
	for _, name := range registered {
		regSet[name] = true
		if !documented[name] {
			t.Errorf("metric %s is registered but not documented in OBSERVABILITY.md", name)
		}
	}
	var stale []string
	for name := range documented {
		if !regSet[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("OBSERVABILITY.md documents %s, which no longer exists in the registry", name)
	}
}

// TestUsageErrorsExitTwo pins the exit-code contract shared by every
// command in this repo: an invalid flag combination exits 2 with a
// message naming the flag, before the daemon listens on anything. The
// two undefined-flag rows are knobs PR 18 removed (DESIGN.md §13): the
// flag package's own exit 2 keeps a resurrected one from going unnoticed.
func TestUsageErrorsExitTwo(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "lcfd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building lcfd: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		want string // substring of stderr
	}{
		{[]string{"-pipeline"}, "flag provided but not defined: -pipeline"},
		{[]string{"-shards", "2"}, "flag provided but not defined: -shards"},
		{[]string{"-xpcap", "4"}, "-xpcap requires -datapath cicq"},
		{[]string{"-n", "0"}, "-n is 0"},
		{[]string{"-slot", "0s"}, "-slot must be positive"},
		{[]string{"-datapath", "bogus"}, "-datapath must be one of"},
		{[]string{"-fault-policy", "bogus"}, "-fault-policy must be drop or hold"},
		{[]string{"-flow-policy", "po2"}, "-flow-policy requires -flows"},
		{[]string{"-rank", "deadline"}, "-rank requires -classes"},
	} {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, tc.args...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("lcfd %v: %v, want exit status 2", tc.args, err)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("lcfd %v: stderr %q does not mention %q", tc.args, stderr.String(), tc.want)
		}
	}
}
