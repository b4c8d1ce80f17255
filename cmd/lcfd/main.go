// Command lcfd runs the live LCF switch daemon: a TCP server wrapping any
// registered scheduler in the internal/runtime slot loop, speaking the
// Clint-style framing of internal/clint on the data plane.
//
// Protocol (per connection, all frames CRC-16 protected):
//
//   - On accept, the switch assigns the connection the lowest free port
//     and says so with a grant frame {NodeID=port, Gnt=port, GntVal=true}
//     — the same initialization handshake Clint uses (Section 4.1: "NodeID
//     assigns the receiving host its port number at initialization time").
//     With every port taken, the switch answers {GntVal=false} and closes.
//   - The client sends data frames; each is admitted at the connection's
//     input port. A full VOQ answers with a nack frame carrying the
//     frame's sequence number — explicit backpressure, never a silent
//     drop.
//   - With -flows, the client may instead send flow data frames naming a
//     64-bit flow id: the switch's steering table (internal/flowtable)
//     resolves the input port — sticky per flow, chosen by -flow-policy —
//     and admits the frame there. A full VOQ or a full steering table
//     answers with the same nack frame. GET /flows serves the tier's
//     counters and per-flow fairness summary.
//   - With -classes, the client may send class data frames labelled with
//     a class index (and optionally a per-frame deadline budget): the
//     frame waits in the (input, output) PIFO ranking tier
//     (internal/pifo) in the order the -rank function decides, and SLO
//     outcomes surface as lcf_class_* metrics and kind=class trace
//     events.
//   - Frames matched to output port j are delivered, src filled in, over
//     the connection that owns port j (each connection is both input and
//     output port of the same index, as in Clint's host↔switch star).
//
// Observability (see OBSERVABILITY.md for the complete reference):
//
//   - GET /metrics on -http serves the live counters (per-port
//     throughput, matched/requested ratio, grant attribution by LCF rule,
//     VOQ depth and match-size histograms, slot-loop compute latency) as
//     JSON by default, or as Prometheus text exposition format 0.0.4 when
//     the Accept header asks for text/plain.
//   - GET /trace drains the in-memory slot-event ring (enabled with
//     -trace, sized with -trace-ring) as JSONL; POST /trace?enabled=true
//     toggles recording at runtime. cmd/lcftrace renders the JSONL.
//   - -debug-addr serves net/http/pprof profiles and /debug/trace
//     runtime execution traces on a separate listener.
//
// Usage:
//
//	lcfd                                  # lcf_central_rr, n=16, :9416
//	lcfd -sched islip -slot 100us
//	lcfd -flows 1000000 -flow-policy po2  # flow-steered admission
//	lcfd -classes rt:0:4:16,bulk:2:1 -rank deadline   # PIFO service classes
//	curl localhost:9417/flows | jq .fairness.jain
//	curl localhost:9417/metrics | jq .engine.match_ratio
//	curl -H 'Accept: text/plain' localhost:9417/metrics   # Prometheus
//	curl -X POST 'localhost:9417/trace?enabled=true'
//	curl localhost:9417/trace | lcftrace
//
// See cmd/lcfload for the matching closed-loop load generator.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/clint"
	"repro/internal/datapath"
	"repro/internal/flowtable"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pifo"
	rt "repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/sched/registry"
)

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:9416", "TCP address for the data plane")
		httpAddr   = flag.String("http", "127.0.0.1:9417", "HTTP address for the metrics endpoint (empty disables)")
		schedName  = flag.String("sched", "lcf_central_rr", "scheduler (see lcfsim for the list; ignored with -datapath=cicq)")
		dpName     = flag.String("datapath", datapath.VOQ, "switch datapath organization: "+strings.Join(datapath.Names(), " or ")+" (cicq buffers frames at the crosspoints and embeds the least-choice rule in per-port arbiters)")
		xpCap      = flag.Int("xpcap", datapath.DefaultXPCap, "per-crosspoint buffer capacity (-datapath=cicq only)")
		n          = flag.Int("n", 16, "switch port count (max 16: the grant frame's NodeID field is 4 bits)")
		slot       = flag.Duration("slot", 200*time.Microsecond, "slot period of the arbiter loop")
		voqCap     = flag.Int("voqcap", 256, "per-VOQ capacity (admission backpressure threshold)")
		outCap     = flag.Int("outcap", 256, "per-output delivery buffer (frames)")
		prealloc   = flag.Bool("prealloc", false, "size every VOQ ring for -voqcap (and, with -classes, every PIFO for -classqcap) at startup: no growth allocations on the admit path, n²·cap resident frame slots")
		iterations = flag.Int("iterations", 4, "iterations for the iterative schedulers")
		seed       = flag.Uint64("seed", 1, "scheduler RNG seed")
		traceRing  = flag.Int("trace-ring", 4096, "slot-event trace ring capacity (0 removes the tracer entirely)")
		traceOn    = flag.Bool("trace", false, "start with slot-event tracing enabled (toggle later with POST /trace)")
		debugAddr  = flag.String("debug-addr", "", "HTTP address for pprof and runtime execution traces (empty disables)")
		faultPol   = flag.String("fault-policy", "drop", "disposition of frames stranded behind a failed port: drop (flush and count) or hold (keep until recovery)")
		flows      = flag.Int("flows", 0, "flow steering table capacity — enables the flow front tier and the /flows endpoint (0 disables; see DESIGN.md §14)")
		flowPolicy = flag.String("flow-policy", "", "flow steering policy: "+strings.Join(flowtable.Names(), ", ")+" (default hash; requires -flows)")
		flowEpoch  = flag.Duration("flow-epoch", time.Second, "period of the flow idle-eviction epoch clock (requires -flows)")
		flowIdle   = flag.Uint("flow-idle", 60, "epochs a flow may sit idle before eviction; 0 keeps flows forever (requires -flows)")
		classSpec  = flag.String("classes", "", "service classes as name[:priority[:weight[:slo_slots]]],... — enables the PIFO ranking tier in front of the VOQs (empty disables)")
		rankName   = flag.String("rank", "", "class rank function: "+strings.Join(pifo.Names(), ", ")+" (default fifo; requires -classes)")
		classQCap  = flag.Int("classqcap", 0, "per-(input,output) PIFO capacity bound (default -voqcap; requires -classes); PIFOs grow toward it on demand unless -prealloc")
	)
	flag.Parse()
	if *n <= 0 || *n > clint.NumPorts {
		// Ports ≥ 16 cannot be represented in the grant frame's 4-bit
		// NodeID field; accepting them here would corrupt the handshake of
		// every client on a high port.
		fatalUsage("-n is %d, must be in [1,%d]: Clint's grant frame carries a 4-bit port id, so a switch with more ports cannot complete its handshake", *n, clint.NumPorts)
	}
	if *slot <= 0 {
		fatalUsage("-slot must be positive (got %v)", *slot)
	}
	var policy rt.FaultPolicy
	switch *faultPol {
	case "drop":
		policy = rt.DropStranded
	case "hold":
		policy = rt.HoldStranded
	default:
		fatalUsage("-fault-policy must be drop or hold (got %q)", *faultPol)
	}

	if !datapath.Known(*dpName) {
		fatalUsage("-datapath must be one of %s (got %q)", strings.Join(datapath.Names(), ", "), *dpName)
	}
	if *xpCap <= 0 {
		fatalUsage("-xpcap must be positive (got %d)", *xpCap)
	}
	if *dpName != datapath.CICQ {
		// Crosspoint tuning without crosspoint buffers is a misconfiguration,
		// not a silent no-op.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "xpcap" {
				fatalUsage("-xpcap requires -datapath cicq")
			}
		})
	}
	if *flows < 0 {
		fatalUsage("-flows must be >= 0 (got %d)", *flows)
	}
	if *flows > 0 {
		if _, err := flowtable.NewPolicy(*flowPolicy); err != nil {
			fatalUsage("-flow-policy: %v", err)
		}
		if *flowEpoch <= 0 {
			fatalUsage("-flow-epoch must be positive (got %v)", *flowEpoch)
		}
	} else {
		// Flow-tier tuning without the tier is a misconfiguration, not a
		// silent no-op: say so instead of ignoring the flag.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "flow-policy", "flow-epoch", "flow-idle":
				fatalUsage("-%s requires -flows > 0", f.Name)
			}
		})
	}
	var classes []pifo.Class
	if *classSpec != "" {
		var err error
		if classes, err = pifo.ParseClasses(*classSpec); err != nil {
			fatalUsage("-classes: %v", err)
		}
		if *classQCap < 0 {
			fatalUsage("-classqcap must be >= 0 (got %d)", *classQCap)
		}
	} else {
		// Class-tier tuning without the tier is a misconfiguration too.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "rank", "classqcap":
				fatalUsage("-%s requires -classes", f.Name)
			}
		})
	}

	// The CICQ datapath runs its own distributed least-choice arbiters;
	// a central scheduler has nothing to schedule there.
	var s sched.Scheduler
	if *dpName != datapath.CICQ {
		var err error
		s, err = registry.New(*schedName, *n, sched.Options{Iterations: *iterations, Seed: *seed})
		if err != nil {
			fatal("%v", err)
		}
	}
	var tracer *obs.Tracer
	if *traceRing > 0 {
		tracer = obs.NewTracer(*n, *traceRing)
		tracer.SetEnabled(*traceOn)
	} else if *traceOn {
		fatalUsage("-trace needs a ring: set -trace-ring > 0")
	}
	engine, err := rt.New(rt.Config{
		N: *n, Scheduler: s, Datapath: *dpName, XPCap: *xpCap,
		VOQCap: *voqCap, OutCap: *outCap, SlotPeriod: *slot,
		PreallocVOQs: *prealloc, Tracer: tracer, FaultPolicy: policy,
		Flows: *flows, FlowPolicy: *flowPolicy,
		Classes: classes, Rank: *rankName, ClassQCap: *classQCap,
	})
	if err != nil {
		fatal("%v", err)
	}

	srv := newServer(engine, *n)
	srv.tracer = tracer
	srv.registry = srv.buildRegistry()
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal("%v", err)
	}
	if err := engine.Start(); err != nil {
		fatal("%v", err)
	}
	for j := 0; j < *n; j++ {
		srv.wg.Add(1)
		go srv.outputPump(j)
	}

	// The flow-epoch clock: advance the table's epoch every -flow-epoch
	// and sweep out flows idle longer than -flow-idle epochs. Steering
	// state only — frames already queued are never touched by eviction.
	var epochStop chan struct{}
	if *flows > 0 && *flowIdle > 0 {
		epochStop = make(chan struct{})
		go func() {
			tick := time.NewTicker(*flowEpoch)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					engine.AdvanceFlowEpoch()
					engine.EvictIdleFlows(uint32(*flowIdle))
				case <-epochStop:
					return
				}
			}
		}()
	}

	if *httpAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", srv.handleMetrics)
		mux.HandleFunc("/trace", srv.handleTrace)
		mux.HandleFunc("/fault", srv.handleFault)
		mux.HandleFunc("/flows", srv.handleFlows)
		mux.HandleFunc("/", srv.handleRoot)
		go func() {
			if err := http.ListenAndServe(*httpAddr, mux); err != nil {
				fmt.Fprintf(os.Stderr, "lcfd: metrics endpoint: %v\n", err)
			}
		}()
	}
	if *debugAddr != "" {
		go func() {
			if err := http.ListenAndServe(*debugAddr, debugMux()); err != nil {
				fmt.Fprintf(os.Stderr, "lcfd: debug endpoint: %v\n", err)
			}
		}()
	}

	fmt.Printf("lcfd: %s on %s (n=%d, slot %v", engine.SchedulerName(), ln.Addr(), *n, *slot)
	if *httpAddr != "" {
		fmt.Printf(", metrics on http://%s/metrics", *httpAddr)
	}
	fmt.Println(")")

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Println("lcfd: shutting down (draining in-flight slots)")
		ln.Close()
	}()

	for {
		conn, err := ln.Accept()
		if err != nil {
			break // listener closed: shut down
		}
		go srv.serveConn(conn)
	}

	srv.closeConns()
	if epochStop != nil {
		close(epochStop)
	}
	engine.Close() // drains; output pumps exit when the channels close
	srv.wg.Wait()
	snap := engine.Snapshot()
	fmt.Printf("lcfd: done after %d slots: admitted %d, delivered %d, backpressured %d\n",
		snap.Slot, snap.Admitted, snap.Delivered, snap.Backpressured)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lcfd: "+format+"\n", args...)
	os.Exit(1)
}

// fatalUsage exits with status 2, the conventional code for command-line
// usage errors (fatal's 1 is for runtime failures).
func fatalUsage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lcfd: "+format+"\n", args...)
	os.Exit(2)
}

// client is one connected host. Its connection has one reader — the
// goroutine serveConn runs on, which is the only goroutine a connection
// owns — and two writers: the output pump of its port (data frames) and
// that reader (nacks). wmu serializes them, so a frame is never split by
// another, and guards the encode buffer, which is reused for every write
// the connection ever sees.
type client struct {
	conn net.Conn
	port int

	wmu  sync.Mutex
	wbuf [maxWriteBatch * clint.DataLen]byte
}

func newClient(conn net.Conn) *client { return &client{conn: conn} }

// writeBatch encodes frames into c's buffer and puts them on the wire in
// one write. A failed write closes the connection, which retires its read
// loop; the caller accounts the batch.
func (c *client) writeBatch(frames []rt.Frame) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	buf := c.wbuf[:len(frames)*clint.DataLen]
	for k, f := range frames {
		clint.Data{Src: uint8(f.Src), Dst: uint8(f.Dst), Seq: f.Seq, Stamp: f.Stamp}.EncodeTo(buf[k*clint.DataLen:])
	}
	_, err := c.conn.Write(buf)
	if err != nil {
		c.conn.Close()
	}
	return err
}

type server struct {
	engine   *rt.Engine
	n        int
	tracer   *obs.Tracer   // nil when -trace-ring 0
	registry *obs.Registry // the Prometheus view of /metrics

	mu    sync.Mutex
	ports []*client // index = port; nil = free

	wg sync.WaitGroup

	accepted        metrics.Counter // connections granted a port
	rejected        metrics.Counter // connections refused (no free port)
	nacksSent       metrics.Counter
	framesWritten   metrics.Counter // deliveries a connection's Write accepted
	droppedNoClient metrics.Counter // deliveries with no connection on the output, or whose Write failed
	protocolErrors  metrics.Counter

	started time.Time
}

func newServer(engine *rt.Engine, n int) *server {
	return &server{engine: engine, n: n, ports: make([]*client, n), started: time.Now()}
}

// assign grabs the lowest free port for c, or -1. Taking ownership
// recovers the port's links (release failed them when the previous owner
// disconnected), so a reconnecting client reclaims a working port: under
// the hold fault policy, frames stranded toward the port while it had no
// owner start flowing to the new connection within one slot. Recover runs
// under s.mu, paired with the FailPort in release, so a release/assign
// race on the same port can never leave a connected client's links down.
func (s *server) assign(c *client) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for p, occ := range s.ports {
		if occ == nil {
			s.ports[p] = c
			c.port = p
			s.engine.Recover(p)
			return p
		}
	}
	return -1
}

// release frees c's port and fails its links: with nobody to consume
// deliveries the port is a black hole, and marking it down redirects the
// scheduler's slots to live ports instead of wasting grants on frames the
// output pump would drop. The configured -fault-policy decides whether
// frames already queued toward it are flushed or held for the next owner.
func (s *server) release(c *client) {
	s.mu.Lock()
	if s.ports[c.port] == c {
		s.ports[c.port] = nil
		s.engine.FailPort(c.port)
	}
	s.mu.Unlock()
}

func (s *server) lookup(port int) *client {
	s.mu.Lock()
	c := s.ports[port]
	s.mu.Unlock()
	return c
}

func (s *server) closeConns() {
	s.mu.Lock()
	conns := append([]*client(nil), s.ports...)
	s.mu.Unlock()
	for _, c := range conns {
		if c != nil {
			c.conn.Close()
		}
	}
}

// maxWriteBatch bounds one write. 64 frames is ~1.3 KB of data frames — far
// below any socket buffer, so a write never splits a frame across kernel
// writes in practice, and it is the size of a client's encode buffer.
const maxWriteBatch = 64

// outputPump is output port j's writer: it takes one delivery from the
// engine, drains whatever else is already there without blocking (the
// engine dispatches a whole matching per slot, and a busy port has many
// slots' worth waiting), and hands the batch to whichever connection owns
// port j at that moment as one write. It exits when the engine closes its
// outputs. A slow client blocks the write; the pump then stops taking
// deliveries, the output channel fills, and the arbiter masks the column —
// backpressure propagates all the way to the senders' VOQs (and from
// there as nacks) instead of buffering without bound. Every frame taken is
// either inside a Write that returned nil (framesWritten) or counted in
// droppedNoClient — its owner gone, or its write failed — so the
// engine's delivered count always balances against the two. The owner is
// looked up once per batch; if it goes mid-write the batch is dropped, not
// re-sent to the port's next owner: a fresh connection must not receive a
// previous session's Seq/Stamp values.
func (s *server) outputPump(j int) {
	defer s.wg.Done()
	out := s.engine.Output(j)
	batch := make([]rt.Frame, 0, maxWriteBatch)
	for f := range out {
		batch = append(batch[:0], f)
	fill:
		for len(batch) < maxWriteBatch {
			select {
			case f, ok := <-out:
				if !ok {
					break fill // closed: the range ends after this batch
				}
				batch = append(batch, f)
			default:
				break fill
			}
		}
		if c := s.lookup(j); c != nil && c.writeBatch(batch) == nil {
			s.framesWritten.Add(int64(len(batch)))
		} else {
			s.droppedNoClient.Add(int64(len(batch)))
		}
	}
}

func (s *server) serveConn(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	c := newClient(conn)
	// From assign on, port's pump may write to c; holding the write lock
	// until the hello is out keeps it the first thing on the wire.
	c.wmu.Lock()
	port := s.assign(c)
	if port < 0 {
		c.wmu.Unlock()
		s.rejected.Inc()
		conn.Write(clint.Grant{GntVal: false}.Encode())
		conn.Close()
		return
	}
	s.accepted.Inc()

	// Hello: the Clint initialization grant carrying the port id.
	_, err := conn.Write(clint.Grant{NodeID: uint8(port), Gnt: uint8(port), GntVal: true}.Encode())
	c.wmu.Unlock()
	if err == nil {
		s.readLoop(c)
	}
	s.release(c)
	conn.Close()
}

// readLoop admits c's frames until the connection ends or breaks
// protocol. It reads through a buffer the size of a few windows, so a
// client that writes a window in one go costs one read(2), not two per
// frame.
func (s *server) readLoop(c *client) {
	br := bufio.NewReaderSize(c.conn, 4096)
	buf := make([]byte, 64)
	for {
		typ, err := br.ReadByte()
		if err != nil {
			return
		}
		flen := clint.FrameLen(typ)
		if flen == 0 {
			s.protocolErrors.Inc()
			return
		}
		frame := buf[:flen]
		frame[0] = typ
		if _, err := io.ReadFull(br, frame[1:]); err != nil {
			return
		}
		// The three data frames decode into one Request and share one
		// admission call; anything else is handled (or refused) here.
		var req rt.Request
		switch typ {
		case clint.TypeData:
			d, derr := clint.DecodeData(frame)
			req, err = rt.Request{Src: c.port, Dst: int(d.Dst), Seq: d.Seq, Stamp: d.Stamp}, derr
		case clint.TypeFlowData:
			// The connection is transport only: the switch picks the input.
			d, derr := clint.DecodeFlowData(frame)
			req, err = rt.Request{Dst: int(d.Dst), Seq: d.Seq, Stamp: d.Stamp, Flow: d.Flow, Steered: true}, derr
		case clint.TypeClassData:
			d, derr := clint.DecodeClassData(frame)
			// The wire deadline is a relative slot budget; a value that
			// does not fit int64 cannot be compared against the slot
			// counter, so it falls back to the class default like 0.
			budget := int64(d.Deadline)
			if budget < 0 {
				budget = 0
			}
			req, err = rt.Request{Src: c.port, Dst: int(d.Dst), Seq: d.Seq, Stamp: d.Stamp, Class: int(d.Class), Classed: true, Budget: budget}, derr
		case clint.TypeConfig:
			// Control-plane configuration (request/enable masks) is not
			// interpreted by the live switch — the request matrix is
			// derived from admitted frames — but remains valid protocol.
			if _, err := clint.DecodeConfig(frame); err != nil {
				s.protocolErrors.Inc()
				return
			}
			continue
		default:
			// Grant and nack frames only flow switch → host.
			s.protocolErrors.Inc()
			return
		}
		if err != nil {
			s.protocolErrors.Inc()
			return
		}
		_, err = s.engine.Offer(req)
		switch {
		case err == nil:
		case errors.Is(err, rt.ErrBackpressure), errors.Is(err, rt.ErrBadPort),
			errors.Is(err, rt.ErrPortDown), errors.Is(err, flowtable.ErrTableFull):
			// A full PIFO or steering table, or a frame toward a failed or
			// unknown port, reads exactly like a full VOQ from the host's
			// side: the sender sees backpressure on Seq, not a dead
			// connection, and can retry later.
			s.nack(c, req.Seq)
		case errors.Is(err, rt.ErrNoFlowTable), errors.Is(err, rt.ErrNoClasses), errors.Is(err, rt.ErrBadClass):
			// A flow or class frame toward a daemon without that tier — or
			// naming a class it was not configured with — is a configuration
			// mismatch, not load: nacking would invite an infinite retry.
			s.protocolErrors.Inc()
			return
		default: // ErrClosed: the daemon is shutting down
			return
		}
	}
}

// nack tells c that frame seq was refused. It runs on c's read loop, so a
// client that does not read its nacks stops being read from.
func (s *server) nack(c *client, seq uint64) {
	c.wmu.Lock()
	buf := c.wbuf[:clint.NackLen]
	clint.Nack{Seq: seq}.EncodeTo(buf)
	_, err := c.conn.Write(buf)
	c.wmu.Unlock()
	if err == nil {
		s.nacksSent.Inc()
	}
}

// metricsPayload is the /metrics JSON document.
type metricsPayload struct {
	Scheduler string      `json:"scheduler"`
	N         int         `json:"n"`
	UptimeSec float64     `json:"uptime_sec"`
	Engine    rt.Snapshot `json:"engine"`
	Server    struct {
		ActiveConns     int   `json:"active_conns"`
		Accepted        int64 `json:"accepted"`
		Rejected        int64 `json:"rejected"`
		NacksSent       int64 `json:"nacks_sent"`
		FramesWritten   int64 `json:"frames_written"`
		DroppedNoClient int64 `json:"dropped_no_client"`
		ProtocolErrors  int64 `json:"protocol_errors"`
	} `json:"server"`
}

func (s *server) payload() metricsPayload {
	var p metricsPayload
	p.Scheduler = s.engine.SchedulerName()
	p.N = s.n
	p.UptimeSec = time.Since(s.started).Seconds()
	p.Engine = s.engine.Snapshot()
	s.mu.Lock()
	for _, c := range s.ports {
		if c != nil {
			p.Server.ActiveConns++
		}
	}
	s.mu.Unlock()
	p.Server.Accepted = s.accepted.Value()
	p.Server.Rejected = s.rejected.Value()
	p.Server.NacksSent = s.nacksSent.Value()
	p.Server.FramesWritten = s.framesWritten.Value()
	p.Server.DroppedNoClient = s.droppedNoClient.Value()
	p.Server.ProtocolErrors = s.protocolErrors.Value()
	return p
}

// handleMetrics serves the live counters, content-negotiated: JSON by
// default (the format this endpoint has always spoken), Prometheus text
// exposition 0.0.4 when the Accept header prefers text/plain. Only GET
// (and HEAD) are meaningful on a read-only resource; anything else is
// 405 with the Allow header set.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	switch obs.NegotiateMetricsFormat(r) {
	case obs.FormatPrometheus:
		w.Header().Set("Content-Type", obs.ContentTypePrometheus)
		if r.Method == http.MethodHead {
			return
		}
		if err := s.registry.WritePrometheus(w); err != nil {
			// The writer is the socket; nothing sensible left to send.
			return
		}
	default:
		w.Header().Set("Content-Type", "application/json")
		if r.Method == http.MethodHead {
			return
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.payload())
	}
}

// flowsPayload is the GET /flows document: the flow tier's counter
// snapshot plus the per-flow service-fairness summary (Jain's index,
// min/max share, resident flows per port).
type flowsPayload struct {
	Flows    *rt.FlowSnapshot   `json:"flows"`
	Fairness flowtable.Fairness `json:"fairness"`
}

// handleFlows serves the flow tier's state. 404 without -flows: the
// resource genuinely does not exist on a flow-free daemon.
func (s *server) handleFlows(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	tbl := s.engine.Flows()
	if tbl == nil {
		http.Error(w, "flow tier not enabled (start lcfd with -flows)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if r.Method == http.MethodHead {
		return
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(flowsPayload{Flows: s.engine.Snapshot().Flows, Fairness: tbl.Fairness()})
}

// portLinkState is one port's entry in the GET /fault document.
type portLinkState struct {
	Port       int  `json:"port"`
	InputDown  bool `json:"input_down"`
	OutputDown bool `json:"output_down"`
	Connected  bool `json:"connected"`
}

// handleFault is the live fault-injection control surface:
//
//	GET  /fault                                  — link state of every port
//	POST /fault?port=3&state=down                — fail both links of port 3
//	POST /fault?port=3&dir=output&state=up       — recover just the output link
//
// dir is input, output or both (default both); state is down or up.
// Transitions take effect at the next slot boundary and are idempotent.
// Note that a client connecting onto a port recovers it (port reclaim),
// so a manual down on a port does not survive that port's next handshake.
func (s *server) handleFault(w http.ResponseWriter, r *http.Request) {
	writeState := func() {
		states := make([]portLinkState, s.n)
		for p := 0; p < s.n; p++ {
			in, out := s.engine.LinkDown(p)
			states[p] = portLinkState{Port: p, InputDown: in, OutputDown: out, Connected: s.lookup(p) != nil}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(states)
	}
	switch r.Method {
	case http.MethodGet:
		writeState()
	case http.MethodPost:
		q := r.URL.Query()
		port, err := strconv.Atoi(q.Get("port"))
		if err != nil || port < 0 || port >= s.n {
			http.Error(w, fmt.Sprintf("POST /fault needs ?port in [0,%d)", s.n), http.StatusBadRequest)
			return
		}
		dir := q.Get("dir")
		if dir == "" {
			dir = "both"
		}
		var down bool
		switch q.Get("state") {
		case "down":
			down = true
		case "up":
			down = false
		default:
			http.Error(w, "POST /fault needs ?state=down or ?state=up", http.StatusBadRequest)
			return
		}
		var ferr error
		switch {
		case dir == "input" && down:
			ferr = s.engine.FailInput(port)
		case dir == "input":
			ferr = s.engine.RecoverInput(port)
		case dir == "output" && down:
			ferr = s.engine.FailOutput(port)
		case dir == "output":
			ferr = s.engine.RecoverOutput(port)
		case dir == "both" && down:
			ferr = s.engine.FailPort(port)
		case dir == "both":
			ferr = s.engine.Recover(port)
		default:
			http.Error(w, "POST /fault needs ?dir=input, output or both", http.StatusBadRequest)
			return
		}
		if ferr != nil {
			http.Error(w, ferr.Error(), http.StatusBadRequest)
			return
		}
		writeState()
	default:
		w.Header().Set("Allow", "GET, POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *server) handleRoot(w http.ResponseWriter, _ *http.Request) {
	p := s.payload()
	fmt.Fprintf(w, "lcfd %s n=%d slot=%d conns=%d\n", p.Scheduler, p.N, p.Engine.Slot, p.Server.ActiveConns)
	fmt.Fprintf(w, "admitted=%d delivered=%d backpressured=%d backlog=%d match_ratio=%.3f\n",
		p.Engine.Admitted, p.Engine.Delivered, p.Engine.Backpressured, p.Engine.Backlog, p.Engine.MatchRatio)
	fmt.Fprintf(w, "throughput=%.3f frames/port/slot, slot compute p50=%.0fns p99=%.0fns\n",
		p.Engine.ThroughputPerSlot, p.Engine.SlotLatencyP50, p.Engine.SlotLatencyP99)
}
