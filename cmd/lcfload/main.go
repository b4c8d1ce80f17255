// Command lcfload is the closed-loop load generator for lcfd: it opens one
// connection per switch port, offers Bernoulli traffic in one of the
// repository's patterns (the PG boxes of Figure 11, aimed at a live switch
// instead of the simulator), and reports achieved throughput, nack-based
// backpressure and end-to-end latency.
//
// Each connection is both a traffic source (its input port) and a sink
// (the same-numbered output port). Frames carry a client-side send
// timestamp that the switch echoes on delivery, so latency is measured
// against a single clock with no switch cooperation.
//
// The generator rides through switch-side degradation: a NACKed frame is
// retransmitted with doubling backoff up to -retries times before being
// given up as dropped, and a connection the switch hangs up on (port
// failed over, daemon restarted) is redialed until the same port is
// reclaimed. Both paths are visible in the final report.
//
// With -flows the generator drives the switch's flow front tier (lcfd
// -flows) instead of per-port admission: every frame carries a 64-bit
// flow id drawn from a Zipf-skewed popularity distribution over -flows
// distinct flows (-flow-skew sets the exponent; 0 is uniform, 1 the
// classic elephant/mice law), and the switch steers each flow to a
// sticky input port. A full steering table nacks exactly like a full
// VOQ, so the retransmit path is shared.
//
// With -class-mix the generator drives the switch's PIFO service-class
// tier (lcfd -classes) instead: each frame is labelled with a class
// index drawn from the given relative weights ("8,1,1" sends 80% class
// 0), and the switch ranks it against its class policy before the VOQs.
// The switch-side report then breaks deliveries, drops and SLO
// violations out per class.
//
// Usage:
//
//	lcfload -pattern uniform -load 0.8
//	lcfload -addr switch:9416 -pattern hotspot -load 0.6 -slots 20000
//	lcfload -flows 100000 -flow-skew 1.1 -slots 20000   # flow mode
//	lcfload -class-mix 8,1,1 -slots 20000               # class mode
//
// Expected output (lcfd with defaults on the same host):
//
//	lcfload: n=16 pattern=uniform load=0.80 slots=5000 slot=1ms
//	sent 64162 frames (offered 0.802/port/slot), delivered 64162, nacked 0, retransmitted 0, dropped 0, unaccounted 0
//	achieved throughput 0.802 frames/port/slot (100.0% of offered)
//	end-to-end latency: mean 0.9ms p50 0.8ms p95 1.6ms p99 2.0ms
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clint"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/traffic"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:9416", "lcfd data-plane address")
		n            = flag.Int("n", 16, "connections to open (= ports driven)")
		pattern      = flag.String("pattern", "uniform", "traffic pattern: uniform, hotspot, diagonal, logdiagonal, bursty")
		load         = flag.Float64("load", 0.8, "offered load per port in [0,1]")
		slots        = flag.Int("slots", 5000, "generator slots to run")
		slot         = flag.Duration("slot", time.Millisecond, "generator slot period")
		seed         = flag.Uint64("seed", 1, "arrival RNG seed")
		burst        = flag.Float64("burst", traffic.DefaultMeanBurst, "mean burst length, >= 1 (bursty pattern)")
		hotfrac      = flag.Float64("hotfrac", traffic.DefaultHotspotFrac, "traffic fraction to the hot port, in (0,1] (hotspot pattern)")
		drain        = flag.Duration("drain", 3*time.Second, "give up on in-flight frames this long after the last delivery progress")
		retries      = flag.Int("retries", 3, "retransmit attempts per frame after a NACK before counting it dropped")
		retryBackoff = flag.Duration("retry-backoff", 2*time.Millisecond, "first retransmit backoff, doubling per attempt (jittered; see -retry-backoff-max)")
		retryMax     = flag.Duration("retry-backoff-max", 250*time.Millisecond, "cap on the exponential retransmit/redial backoff")
		metricsURL   = flag.String("metrics", "", "lcfd metrics URL (e.g. http://127.0.0.1:9417/metrics); scraped after the run for the switch-side view")
		flows        = flag.Int("flows", 0, "distinct flow ids to offer through the switch's flow front tier (0 = classic per-port data frames; the daemon needs -flows too)")
		flowSkew     = flag.Float64("flow-skew", 1.0, "Zipf skew exponent of the flow popularity distribution (0 = uniform; requires -flows)")
		classMix     = flag.String("class-mix", "", "per-class traffic weights w0,w1,... by class index — send class data frames through the switch's PIFO tier (the daemon needs -classes too; mutually exclusive with -flows)")
	)
	flag.Parse()
	// Flag validation failures are usage errors: exit 2, distinct from
	// the runtime failures fatal reports with exit 1.
	if *n <= 0 {
		fatalUsage("-n must be positive")
	}
	if *load < 0 || *load > 1 {
		fatalUsage("-load %g out of [0,1]", *load)
	}
	if *burst < 1 || *hotfrac <= 0 || *hotfrac > 1 {
		fatalUsage("-burst must be >= 1 and -hotfrac in (0,1] (got %g, %g)", *burst, *hotfrac)
	}
	if *slots <= 0 || *slot <= 0 {
		fatalUsage("-slots and -slot must be positive")
	}
	if *retries < 0 || *retryBackoff <= 0 {
		fatalUsage("-retries must be >= 0 and -retry-backoff positive")
	}
	if *retryMax < *retryBackoff {
		fatalUsage("-retry-backoff-max %v is below -retry-backoff %v", *retryMax, *retryBackoff)
	}
	if *flows < 0 {
		fatalUsage("-flows must be >= 0 (got %d)", *flows)
	}
	if *flowSkew < 0 {
		fatalUsage("-flow-skew must be >= 0 (got %g)", *flowSkew)
	}
	if *flows == 0 {
		// Flow-mode tuning without flow mode is a misconfiguration, not a
		// silent no-op.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "flow-skew" {
				fatalUsage("-flow-skew requires -flows > 0")
			}
		})
	}
	var mix *classPicker
	if *classMix != "" {
		if *flows > 0 {
			fatalUsage("-class-mix and -flows are mutually exclusive (a frame carries a flow id or a class label, not both)")
		}
		ws, err := parseClassMix(*classMix)
		if err == nil {
			mix, err = newClassPicker(ws, *seed^0xc1a55)
		}
		if err != nil {
			fatalUsage("-class-mix: %v", err)
		}
	}
	gen, err := traffic.NewPattern(*pattern, *n, *load,
		traffic.Params{HotspotFrac: *hotfrac, MeanBurst: *burst}, *seed)
	if err != nil {
		fatalUsage("-pattern: %v", err)
	}
	var zipf *traffic.Zipf
	if *flows > 0 {
		// An independent stream from the arrival RNGs: adding flow ids
		// must not perturb the per-port arrival sequences.
		zipf = traffic.NewZipf(*flows, *flowSkew, *seed^0xf10f10f1)
	}
	// The retry/redial jitter stream, independent of the arrival and
	// class-pick streams for the same reason.
	jit := newJitter(*seed ^ 0x5eedbacc)

	conns := make([]*portConn, *n)
	for i := range conns {
		c, err := dialPort(*addr)
		if err != nil {
			fatal("connection %d: %v", i, err)
		}
		if conns[c.port] != nil {
			fatal("switch assigned port %d twice", c.port)
		}
		conns[c.port] = c
	}
	for p, c := range conns {
		if c == nil {
			fatal("no connection was assigned port %d (is another client attached to lcfd?)", p)
		}
	}

	var (
		delivered    atomic.Int64
		nacked       atomic.Int64 // NACK events, including ones that trigger a retransmit
		retransmits  atomic.Int64
		dropped      atomic.Int64 // frames given up after exhausting -retries
		reconnects   atomic.Int64
		writeErrs    atomic.Int64
		shuttingDown atomic.Bool
	)
	flights := &flightTable{pending: make(map[uint64]*flight)}
	latency := metrics.NewLiveHistogram(metrics.ExponentialBounds(float64(50*time.Microsecond), 1.5, 32))
	var latencyMu sync.Mutex
	latencyStream := &metrics.Stream{}

	// retryOrDrop consults the flight table after a failed offer (switch
	// NACK or client-side write error) and either schedules a backed-off
	// retransmit on c or gives the frame up. Retransmits reuse the
	// original Stamp, so reported latency is true end-to-end time
	// including the backoff the frame sat out.
	var retryOrDrop func(c *portConn, seq uint64)
	retryOrDrop = func(c *portConn, seq uint64) {
		fl, disp := flights.retry(seq, *retries)
		switch disp {
		case flightGone: // delivered while the retry raced in
			return
		case flightExhausted:
			dropped.Add(1)
			return
		}
		delay := retryDelay(*retryBackoff, *retryMax, fl.attempts, jit.next())
		time.AfterFunc(delay, func() {
			if shuttingDown.Load() {
				return
			}
			if err := c.send(fl.wire[:fl.n]); err != nil {
				retryOrDrop(c, seq) // conn mid-reconnect: burn another attempt
				return
			}
			retransmits.Add(1)
		})
	}

	var receivers sync.WaitGroup
	for _, c := range conns {
		receivers.Add(1)
		go func(c *portConn) {
			defer receivers.Done()
			var hdr [1]byte
			buf := make([]byte, 64)
			for {
				if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
					if shuttingDown.Load() || !c.redial(*addr, &shuttingDown, jit) {
						return
					}
					reconnects.Add(1)
					continue
				}
				flen := clint.FrameLen(hdr[0])
				if flen == 0 {
					fmt.Fprintf(os.Stderr, "lcfload: port %d: unknown frame type %#02x\n", c.port, hdr[0])
					return
				}
				frame := buf[:flen]
				frame[0] = hdr[0]
				if _, err := io.ReadFull(c.r, frame[1:]); err != nil {
					if shuttingDown.Load() || !c.redial(*addr, &shuttingDown, jit) {
						return
					}
					reconnects.Add(1)
					continue
				}
				switch hdr[0] {
				case clint.TypeData:
					d, err := clint.DecodeData(frame)
					if err != nil {
						fmt.Fprintf(os.Stderr, "lcfload: port %d: %v\n", c.port, err)
						return
					}
					flights.settle(d.Seq)
					lat := float64(uint64(time.Now().UnixNano()) - d.Stamp)
					delivered.Add(1)
					latency.Observe(lat)
					latencyMu.Lock()
					latencyStream.Add(lat)
					latencyMu.Unlock()
				case clint.TypeNack:
					nk, err := clint.DecodeNack(frame)
					if err != nil {
						fmt.Fprintf(os.Stderr, "lcfload: port %d: %v\n", c.port, err)
						return
					}
					nacked.Add(1)
					retryOrDrop(c, nk.Seq)
				}
			}
		}(c)
	}

	// The pacer: one goroutine ticks the generator clock and fans frames
	// out over all connections. Retransmit timers and reconnects write
	// too, so every touch of a connection's writer goes through its
	// mutex. A write error here is not fatal — the receiver is already
	// redialing — so the frame takes the retry path like a NACK.
	var sent int64
	var seq uint64
	var frame [maxDataLen]byte
	start := time.Now()
	ticker := time.NewTicker(*slot)
	for t := 0; t < *slots; t++ {
		<-ticker.C
		for in := 0; in < *n; in++ {
			dst := gen.Next(in)
			if dst == traffic.NoPacket {
				continue
			}
			seq++
			stamp := uint64(time.Now().UnixNano())
			var wire []byte
			switch {
			case zipf != nil:
				// Flow mode: the connection is transport only — the switch
				// steers the frame to an input port by its flow id.
				wire = frame[:clint.FlowDataLen]
				clint.FlowData{Flow: uint64(zipf.Next()), Dst: uint8(dst), Seq: seq, Stamp: stamp}.EncodeTo(wire)
			case mix != nil:
				// Class mode: label the frame; the switch ranks it in its
				// (input, output) PIFO. Deadline 0 = the class's own budget.
				wire = frame[:clint.ClassDataLen]
				clint.ClassData{Class: mix.pick(), Dst: uint8(dst), Seq: seq, Stamp: stamp}.EncodeTo(wire)
			default:
				wire = frame[:clint.DataLen]
				clint.Data{Dst: uint8(dst), Seq: seq, Stamp: stamp}.EncodeTo(wire)
			}
			flights.track(seq, wire)
			sent++
			if err := conns[in].write(wire); err != nil {
				writeErrs.Add(1)
				retryOrDrop(conns[in], seq)
			}
		}
		gen.Advance()
		for _, c := range conns {
			if err := c.flush(); err != nil {
				// Frames buffered behind a dead conn are lost client-side
				// and settle as unaccounted; the receiver is redialing.
				writeErrs.Add(1)
			}
		}
	}
	ticker.Stop()
	elapsed := time.Since(start)

	// Closed loop: every sent frame ends as a delivery or an exhausted
	// retry. Wait on a coarse ticker rather than spinning, and extend the
	// deadline while the count is still moving, so a slow post-fault
	// recovery is not cut off mid-drain while a wedged run still
	// terminates within -drain of its last progress.
	deadline := time.Now().Add(*drain)
	pulse := time.NewTicker(20 * time.Millisecond)
	lastAccounted := int64(-1)
	for {
		accounted := delivered.Load() + dropped.Load()
		if accounted >= sent {
			break
		}
		if accounted > lastAccounted {
			lastAccounted = accounted
			deadline = time.Now().Add(*drain)
		}
		if !time.Now().Before(deadline) {
			break
		}
		<-pulse.C
	}
	pulse.Stop()
	shuttingDown.Store(true)
	for _, c := range conns {
		c.close()
	}
	receivers.Wait()

	del, nak, rtx, drop := delivered.Load(), nacked.Load(), retransmits.Load(), dropped.Load()
	lost := sent - del - drop
	offered := float64(sent) / float64(*slots**n)
	achieved := float64(del) / float64(*slots**n)
	flowMode := ""
	if zipf != nil {
		flowMode = fmt.Sprintf(" flows=%d skew=%.2f", *flows, *flowSkew)
	}
	if mix != nil {
		flowMode = fmt.Sprintf(" class-mix=%s", *classMix)
	}
	fmt.Printf("lcfload: n=%d pattern=%s load=%.2f slots=%d slot=%v%s elapsed=%v\n",
		*n, *pattern, *load, *slots, *slot, flowMode, elapsed.Round(time.Millisecond))
	fmt.Printf("sent %d frames (offered %.3f/port/slot), delivered %d, nacked %d, retransmitted %d, dropped %d, unaccounted %d\n",
		sent, offered, del, nak, rtx, drop, lost)
	if rc := reconnects.Load(); rc > 0 || writeErrs.Load() > 0 {
		fmt.Printf("degraded operation: %d reconnects, %d write errors\n", rc, writeErrs.Load())
	}
	if offered > 0 {
		fmt.Printf("achieved throughput %.3f frames/port/slot (%.1f%% of offered)\n",
			achieved, 100*achieved/offered)
	}
	if del > 0 {
		latencyMu.Lock()
		mean := latencyStream.Mean()
		max := latencyStream.Max()
		latencyMu.Unlock()
		fmt.Printf("end-to-end latency: mean %v p50 %s p95 %s p99 %s max %v\n",
			time.Duration(mean).Round(10*time.Microsecond),
			quantileLabel(latency, 0.50),
			quantileLabel(latency, 0.95),
			quantileLabel(latency, 0.99),
			time.Duration(max).Round(10*time.Microsecond))
	}
	if *metricsURL != "" {
		if err := reportSwitchSide(*metricsURL); err != nil {
			fmt.Fprintf(os.Stderr, "lcfload: switch-side metrics: %v\n", err)
		}
	}
	if lost > 0 {
		fmt.Fprintf(os.Stderr, "lcfload: %d frames unaccounted for %v after last progress\n", lost, *drain)
		os.Exit(1)
	}
}

// quantileLabel renders one latency quantile for the report.
// LiveHistogram.Quantile returns +Inf when the quantile falls in the
// overflow bucket — beyond the histogram's top bound — and formatting
// that as a Duration used to print a garbage negative number that read
// like a real (and excellent) p99. Overflow is reported as an explicit
// lower bound instead.
func quantileLabel(h *metrics.LiveHistogram, q float64) string {
	v := h.Quantile(q)
	if math.IsInf(v, 1) {
		bounds := h.Snapshot().Bounds
		top := time.Duration(bounds[len(bounds)-1])
		return fmt.Sprintf(">%v", top.Round(10*time.Microsecond))
	}
	return time.Duration(v).Round(10 * time.Microsecond).String()
}

// reportSwitchSide scrapes lcfd's Prometheus exposition and prints the
// switch's own view of the run — what the scheduler saw and decided —
// next to the client-side numbers above.
func reportSwitchSide(url string) error {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	s, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		return err
	}
	slots, _ := s.Value("lcf_engine_slots_total")
	requested, _ := s.Value("lcf_engine_requested_total")
	matched, _ := s.Value("lcf_engine_matched_total")
	backpressured, _ := s.Value("lcf_engine_backpressured_total")
	fmt.Printf("switch side: %0.f slots, %0.f requests, %0.f matched", slots, requested, matched)
	if requested > 0 {
		fmt.Printf(" (match ratio %.3f)", matched/requested)
	}
	fmt.Printf(", %0.f backpressured\n", backpressured)
	var parts []string
	for _, rule := range []string{"lcf", "diagonal", "prescheduled", "unattributed"} {
		if v, ok := s.Value(`lcf_grants_total{rule="` + rule + `"}`); ok && v > 0 {
			parts = append(parts, fmt.Sprintf("%s %.0f", rule, v))
		}
	}
	if len(parts) > 0 {
		fmt.Printf("grants by rule: %s\n", strings.Join(parts, ", "))
	}
	// The flow tier's view, when the daemon runs one.
	if steered, ok := s.Value("lcf_flow_steered_total"); ok {
		resident, _ := s.Value("lcf_flow_resident")
		admitted, _ := s.Value("lcf_flow_admitted_total")
		rejected, _ := s.Value("lcf_flow_rejected_total")
		imbalance, _ := s.Value("lcf_flow_backlog_imbalance")
		fmt.Printf("flow tier: %.0f resident, %.0f steered (%.0f new, %.0f rejected), backlog imbalance %.2f\n",
			resident, steered, admitted, rejected, imbalance)
	}
	// The class tier's view, when the daemon runs one: one line per
	// configured class, keyed off the delivered counter (present for
	// every class from startup, even at zero).
	var classes []string
	for key := range s {
		if m := classSeriesRE.FindStringSubmatch(key); m != nil {
			classes = append(classes, m[1])
		}
	}
	sort.Strings(classes)
	for _, name := range classes {
		label := `{class="` + name + `"}`
		admitted, _ := s.Value("lcf_class_admitted_total" + label)
		delivered, _ := s.Value("lcf_class_delivered_total" + label)
		dropped, _ := s.Value("lcf_class_dropped_total" + label)
		violations, _ := s.Value("lcf_class_slo_violations_total" + label)
		fmt.Printf("class %s: %.0f admitted, %.0f delivered, %.0f dropped, %.0f SLO violations\n",
			name, admitted, delivered, dropped, violations)
	}
	return nil
}

var classSeriesRE = regexp.MustCompile(`^lcf_class_delivered_total\{class="([^"]+)"\}$`)

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lcfload: "+format+"\n", args...)
	os.Exit(1)
}

// fatalUsage exits with status 2, the conventional code for command-line
// usage errors (fatal's 1 is for runtime failures).
func fatalUsage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lcfload: "+format+"\n", args...)
	os.Exit(2)
}

// Dispositions returned by flightTable.retry.
const (
	flightRetry     = iota // attempt budget left: retransmit
	flightExhausted        // out of attempts: count dropped
	flightGone             // already settled: delivery won the race
)

// maxDataLen is the longest host → switch data frame (the class frame).
const maxDataLen = clint.ClassDataLen

// flight is one unacknowledged frame. The switch's NACK carries only the
// sequence number, so the frame's bytes are kept client-side: a
// retransmit is the first transmission again, original Stamp included.
type flight struct {
	wire     [maxDataLen]byte
	n        int
	attempts int
}

// flightTable indexes every in-flight frame by sequence number:
// deliveries settle entries, NACKs and write errors consult the retry
// budget. Sequence numbers are global across ports (one pacer), so one
// table serves all connections.
type flightTable struct {
	mu      sync.Mutex
	pending map[uint64]*flight
}

// track records the encoded frame wire as in flight under seq.
func (ft *flightTable) track(seq uint64, wire []byte) {
	fl := &flight{n: len(wire)}
	copy(fl.wire[:], wire)
	ft.mu.Lock()
	ft.pending[seq] = fl
	ft.mu.Unlock()
}

func (ft *flightTable) settle(seq uint64) {
	ft.mu.Lock()
	delete(ft.pending, seq)
	ft.mu.Unlock()
}

func (ft *flightTable) retry(seq uint64, max int) (flight, int) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	fl, ok := ft.pending[seq]
	if !ok {
		return flight{}, flightGone
	}
	if fl.attempts >= max {
		delete(ft.pending, seq)
		return flight{}, flightExhausted
	}
	fl.attempts++
	return *fl, flightRetry
}

// portConn is one host connection after the hello handshake. The pacer,
// retransmit timers and the redial path all touch the writer, so every
// write goes through mu; reads stay lock-free because only the
// receiver goroutine reads, and it is also the only one that swaps the
// connection on redial.
type portConn struct {
	port int
	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

func (c *portConn) write(b []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := c.w.Write(b)
	return err
}

func (c *portConn) flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.w.Flush()
}

// send is write+flush for paths outside the pacer's batched cadence
// (retransmits), where the frame should hit the wire now.
func (c *portConn) send(b []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.w.Write(b); err != nil {
		return err
	}
	return c.w.Flush()
}

func (c *portConn) close() {
	c.mu.Lock()
	c.conn.Close()
	c.mu.Unlock()
}

// redial reconnects after the switch hangs up and insists on
// reclaiming the same port: lcfd assigns the lowest free port, so once
// the daemon notices our EOF and releases it, the old number is the
// first one handed back (every lower port is held by our sibling
// connections). A different assignment means the release hasn't landed
// yet — hand the connection back and try again. Called only from the
// receiver goroutine, which owns the read side.
func (c *portConn) redial(addr string, shuttingDown *atomic.Bool, jit *jitter) bool {
	for attempt := 1; attempt <= 10 && !shuttingDown.Load(); attempt++ {
		// Same capped, jittered exponential as the retransmit path: after
		// a daemon restart every port redials at once, and bare doubling
		// would keep all n SYNs phase-locked through every attempt.
		time.Sleep(retryDelay(10*time.Millisecond, 500*time.Millisecond, attempt, jit.next()))
		nc, err := dialPort(addr)
		if err != nil {
			continue
		}
		if nc.port != c.port {
			nc.conn.Close()
			continue
		}
		c.mu.Lock()
		c.conn.Close()
		c.conn, c.r, c.w = nc.conn, nc.r, nc.w
		c.mu.Unlock()
		return true
	}
	return false
}

// dialPort connects and completes the Clint initialization grant, learning
// which port the switch assigned us.
func dialPort(addr string) (*portConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	r := bufio.NewReader(conn)
	hello := make([]byte, clint.GrantLen)
	if _, err := io.ReadFull(r, hello); err != nil {
		conn.Close()
		return nil, fmt.Errorf("hello: %w", err)
	}
	g, err := clint.DecodeGrant(hello)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("hello: %w", err)
	}
	if !g.GntVal {
		conn.Close()
		return nil, fmt.Errorf("switch refused the connection (all ports taken)")
	}
	return &portConn{conn: conn, port: int(g.NodeID), r: r, w: bufio.NewWriter(conn)}, nil
}
