package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clint"
	"repro/internal/traffic"
)

// The wire workloads' fixed shape. The daemon free-runs its arbiter
// (-slot 1us: the ticker drops the ticks it cannot serve), so the wire
// figures are CPU-bound; bench/README.md says why. Traffic crosses the
// host's loopback interface, never a real link.
const (
	wireN        = 16
	wireSlot     = time.Microsecond // lcfd -slot: the nominal slot
	wireWindow   = 64               // frames in flight per client (closed loop)
	wireClients  = 2
	wireFlows    = 100000 // distinct flow ids, drawn Zipf(1.0)
	wireFlowCap  = 200000 // lcfd -flows
	wireTimeout  = 2 * time.Second
	wireDrawRing = 1 << 20 // pre-drawn flow ranks per client, replayed
)

// warmupRounds is the fixed amount of work each client does in set-up.
func warmupRounds(smoke bool) int {
	if smoke {
		return 20
	}
	return 1000
}

// wireEpoch is the zero of the send stamps carried in the frames.
var wireEpoch = time.Now()

func sinceEpoch() uint64 { return uint64(time.Since(wireEpoch)) }

// wireClient is one closed-loop connection: it writes a window of
// frames addressed to its own port in one write, reads the window's
// replies, checks each, and only then sends the next window.
type wireClient struct {
	conn net.Conn
	br   *bufio.Reader
	port uint8
	flow bool

	ids   []uint64 // flow id per rank (flow mode)
	ranks []int32  // pre-drawn ranks, replayed
	pos   int

	win   echoWindow
	wbuf  []byte
	frame [clint.FlowDataLen]byte
	seq   uint64

	failures
	sent, nacked int64
	echoed       atomic.Int64 // read by the measuring goroutine
	// seg is the segment being measured, set by the measuring goroutine;
	// RTTs (ns) are recorded into rtts[seg] while it is inside the run.
	seg    atomic.Int32
	rtts   segSamples
	tr     *tracer // nil when untraced
	rounds int64
	// tracedFrames counts the frames of the traced rounds, the base of
	// the per-frame client figures.
	tracedFrames int64
}

func dialClient(addr string, flow bool, ids []uint64, seed uint64, traced bool) (*wireClient, error) {
	conn, err := net.DialTimeout("tcp", addr, wireTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true) // best effort; loopback works either way
	}
	c := &wireClient{conn: conn, br: bufio.NewReaderSize(conn, 1<<16), flow: flow, ids: ids}
	c.seg.Store(-1)
	var hello [clint.GrantLen]byte
	_ = conn.SetReadDeadline(time.Now().Add(wireTimeout))
	if _, err := io.ReadFull(c.br, hello[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("read hello: %w", err)
	}
	g, err := clint.DecodeGrant(hello[:])
	if err != nil || !g.GntVal {
		conn.Close()
		return nil, fmt.Errorf("lcfd refused the connection (hello %+v, %v)", g, err)
	}
	c.port = g.NodeID
	frameLen := clint.DataLen
	c.win.lastSeq = make([]uint64, 1)
	if flow {
		frameLen = clint.FlowDataLen
		c.win.lastSeq = make([]uint64, len(ids))
		z := traffic.NewZipf(len(ids), 1.0, seed)
		c.ranks = make([]int32, wireDrawRing)
		for k := range c.ranks {
			c.ranks[k] = int32(z.Next())
		}
	}
	c.wbuf = make([]byte, wireWindow*frameLen)
	if traced {
		c.tr = newTracer("", maxStoredSpans/8)
	}
	return c, nil
}

// round sends one window and reads it back. An error means the
// connection is out of step (timeout, protocol error) and the client
// must stop; refused or wrong replies are counted and the loop goes on.
func (c *wireClient) round() error {
	seg := int(c.seg.Load())
	record := seg >= 0 && seg < len(c.rtts)
	tr := c.tr
	if !traceOn(seg) {
		tr = nil // a traced run traces every other segment
	}
	var t0, t1, t2 int64
	if tr != nil {
		t0 = tr.now()
	}
	base := c.seq
	c.win.reset(base, wireWindow)
	stamp := sinceEpoch()
	for k := 0; k < wireWindow; k++ {
		c.win.stamps[k] = stamp
		if c.flow {
			rank := c.ranks[c.pos]
			c.pos = (c.pos + 1) % len(c.ranks)
			c.win.flows[k] = rank
			clint.FlowData{Flow: c.ids[rank], Dst: c.port, Seq: c.seq, Stamp: stamp}.
				EncodeTo(c.wbuf[k*clint.FlowDataLen:])
		} else {
			c.win.flows[k] = 0
			clint.Data{Dst: c.port, Seq: c.seq, Stamp: stamp}.EncodeTo(c.wbuf[k*clint.DataLen:])
		}
		c.seq++
	}
	c.attempted += wireWindow
	c.sent += wireWindow
	if _, err := c.conn.Write(c.wbuf); err != nil {
		c.fail(wireWindow, "write: %v", err)
		return err
	}
	if tr != nil {
		t1 = tr.now()
	}
	_ = c.conn.SetReadDeadline(time.Now().Add(wireTimeout))
	for answered := 0; answered < wireWindow; answered++ {
		typ, err := c.br.ReadByte()
		if err != nil {
			c.fail(int64(c.win.missing()), "%d frames unanswered within %v: %v", c.win.missing(), wireTimeout, err)
			return err
		}
		if tr != nil && answered == 0 {
			t2 = tr.now()
		}
		flen := clint.FrameLen(typ)
		if typ != clint.TypeData && typ != clint.TypeNack {
			c.fail(int64(c.win.missing()), "unexpected frame type %#02x from lcfd", typ)
			return fmt.Errorf("unexpected frame type %#02x", typ)
		}
		f := c.frame[:flen]
		f[0] = typ
		if _, err := io.ReadFull(c.br, f[1:]); err != nil {
			c.fail(int64(c.win.missing()), "short reply: %v", err)
			return err
		}
		if typ == clint.TypeNack {
			nk, err := clint.DecodeNack(f)
			if err != nil {
				c.fail(1, "bad nack: %v", err)
				return err
			}
			c.nacked++
			c.fail(1, "seq %d: %s", nk.Seq, c.win.nack(nk.Seq))
			continue
		}
		d, err := clint.DecodeData(f)
		if err != nil {
			c.fail(1, "bad reply: %v", err)
			return err
		}
		c.echoed.Add(1)
		if why := c.win.echo(d.Seq, d.Stamp); why != "" {
			c.fail(1, "seq %d: %s", d.Seq, why)
		} else if record {
			c.rtts[seg] = append(c.rtts[seg], float64(sinceEpoch()-d.Stamp))
		}
	}
	if tr != nil {
		t3 := tr.now()
		tr.add(spWrite, c.rounds, t0, t1)
		tr.add(spWaitFirst, c.rounds, t1, t2)
		tr.add(spRead, c.rounds, t2, t3)
		tr.add(spBatch, c.rounds, t0, tr.now())
		c.tracedFrames += wireWindow
	}
	c.rounds++
	return nil
}

// loop runs rounds until n are done (n > 0) or stop is set.
func (c *wireClient) loop(n int, stop *atomic.Bool) {
	for k := 0; (n == 0 || k < n) && !stop.Load(); k++ {
		if c.round() != nil {
			return
		}
	}
}

// session is one lcfd with its connected, warmed-up clients.
type session struct {
	d       *daemon
	clients []*wireClient
}

// each runs fn for every client concurrently and waits.
func (s *session) each(fn func(*wireClient)) {
	var wg sync.WaitGroup
	for _, c := range s.clients {
		wg.Add(1)
		go func(c *wireClient) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// flowIDs is the workload's flow population: wireFlows ids derived from
// the seed, indexed by popularity rank.
func flowIDs(seed uint64) []uint64 {
	ids := make([]uint64, wireFlows)
	for r := range ids {
		ids[r] = splitmix(seed, uint64(1<<32+r))
	}
	return ids
}

func openSession(cfg runConfig, flow bool, traced bool) (*session, error) {
	args := []string{"-n", fmt.Sprint(wireN), "-slot", wireSlot.String()}
	var ids []uint64
	if flow {
		args = append(args, "-flows", fmt.Sprint(wireFlowCap))
		ids = flowIDs(cfg.seed)
	}
	d, err := startDaemon(cfg.lcfd, args...)
	if err != nil {
		return nil, err
	}
	s := &session{d: d}
	// At most one connection and one generator goroutine per processor.
	for k := 0; k < min(wireClients, runtime.NumCPU()); k++ {
		c, err := dialClient(d.listen, flow, ids, splitmix(cfg.seed, uint64(100+k)), traced)
		if err != nil {
			s.abort()
			return nil, err
		}
		s.clients = append(s.clients, c)
	}
	var never atomic.Bool
	s.each(func(c *wireClient) { c.loop(warmupRounds(cfg.smoke), &never) })
	return s, nil
}

// abort tears the session down without reading its books.
func (s *session) abort() {
	for _, c := range s.clients {
		c.conn.Close()
	}
	s.d.kill()
}

// close stops the daemon, closes the connections and audits the books:
// every frame any client sent is an attempted operation, and the
// daemon's exit ledger and error counters must agree with the clients'
// own counts.
func (s *session) close(f *failures) {
	final, scrapeErr := s.d.scrape()
	l, err := s.d.stop()
	var books clientLedger
	for _, c := range s.clients {
		c.conn.Close()
		f.attempted += c.attempted
		f.fail(c.failed, "client on port %d: %v", c.port, c.reasons)
		books.sent += c.sent
		books.echoed += c.echoed.Load()
		books.nacked += c.nacked
	}
	switch {
	case err != nil:
		f.fail(1, "%v", err)
	case scrapeErr != nil:
		f.fail(1, "final scrape: %v", scrapeErr)
	default:
		off := ledgerDisagreement(l, books, final.Server.ProtocolErrors, final.Server.DroppedNoClient)
		f.fail(off, "books disagree: lcfd %+v (protocol errors %d, dropped %d), clients %+v",
			l, final.Server.ProtocolErrors, final.Server.DroppedNoClient, books)
	}
}

// runWire is workloads wire_plain_w64 and wire_flow_w64.
func runWire(cfg runConfig, tr *tracer, flow bool) (*outcome, error) {
	out := newOutcome()

	// Set-up: start lcfd, wait until it answers, connect, warm up with a
	// fixed number of rounds. Earlier sessions are closed (and audited).
	var (
		sess   *session
		setups []float64
	)
	for k := 0; k < cfg.setups; k++ {
		if sess != nil {
			sess.close(&out.failures)
		}
		s0 := time.Now()
		var err error
		if sess, err = openSession(cfg, flow, tr != nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(s0).Seconds())
	}
	out.e2e["setup_s"] = median(setups)

	scrape := func() (lcfdMetrics, error) {
		if tr == nil {
			return sess.d.scrape()
		}
		t0 := tr.now()
		m, err := sess.d.scrape()
		tr.add(spScrape, 0, t0, tr.now())
		return m, err
	}
	before, err := scrape()
	if err != nil {
		sess.abort()
		return nil, fmt.Errorf("scrape: %w", err)
	}
	pid, self := sess.d.pid(), os.Getpid()
	cpu0, selfCPU0 := procCPUSeconds(pid), procCPUSeconds(self)

	// Measure: the clients loop until told to stop; this goroutine only
	// reads their counters at the segment boundaries.
	const segments = runSegments
	var stop atomic.Bool
	echoed := func() (n int64) {
		for _, c := range sess.clients {
			n += c.echoed.Load()
		}
		return n
	}
	for _, c := range sess.clients {
		c.rtts = newSegSamples(segments, 1<<16)
		c.seg.Store(0)
	}
	done := make(chan struct{})
	go func() {
		sess.each(func(c *wireClient) { c.loop(0, &stop) })
		close(done)
	}()
	start, base := time.Now(), echoed()
	marks := []mark{{0, 0}}
	for seg := 1; seg <= segments; seg++ {
		time.Sleep(time.Until(start.Add(cfg.dur * time.Duration(seg) / segments)))
		marks = append(marks, mark{time.Since(start).Seconds(), float64(echoed() - base)})
		for _, c := range sess.clients {
			c.seg.Store(int32(seg))
		}
	}
	stop.Store(true)
	<-done
	elapsed := time.Since(start).Seconds()
	frames := float64(echoed() - base)

	after, err := scrape()
	if err != nil {
		sess.abort()
		return nil, fmt.Errorf("scrape: %w", err)
	}
	cpu1, selfCPU1 := procCPUSeconds(pid), procCPUSeconds(self)
	out.e2e["mem_mb"] = procPeakMB(pid)
	sess.close(&out.failures)

	rtts := newSegSamples(segments, 0)
	for _, c := range sess.clients {
		for k := range rtts {
			rtts[k] = append(rtts[k], c.rtts[k]...)
		}
	}
	rtts.sortAll()
	rttCount, rttTypical := rtts.count()
	out.pTail = tailPercentile(rttTypical, 0.99)
	nominal := float64(wireSlot.Nanoseconds())
	out.e2e["frames_per_s"] = sustained(segmentRates(marks), higher)
	out.e2e["slots_per_s"] = out.e2e["frames_per_s"] / wireWindow // closed-loop rounds
	out.e2e["rtt_p50_us"] = rtts.percentile(0.50) / 1000
	out.e2e["rtt_p99_us"] = rtts.percentile(out.pTail) / 1000
	out.e2e["delay_mean_slots"] = rtts.mean() / nominal
	out.e2e["delay_p99_slots"] = rtts.percentile(out.pTail) / nominal
	out.e2e["ok_share"] = out.okShare()
	for _, k := range []string{"rtt_p50_us", "rtt_p99_us", "delay_mean_slots", "delay_p99_slots"} {
		out.samples[k] = int64(rttCount)
	}
	out.samples["frames_per_s"] = segments
	out.samples["slots_per_s"] = segments

	if tr != nil {
		tracedFrames := 0.0
		for _, c := range sess.clients {
			tr.merge(c.tr)
			tracedFrames += float64(c.tracedFrames)
		}
		slots := float64(after.Engine.Slot - before.Engine.Slot)
		delivered := float64(after.Engine.Delivered - before.Engine.Delivered)
		lat := after.Engine.SlotLatencyNs
		for k := range lat.Counts {
			lat.Counts[k] -= before.Engine.SlotLatencyNs.Counts[k]
		}
		lat.Overflow -= before.Engine.SlotLatencyNs.Overflow
		cpus := float64(runtime.NumCPU())
		out.layer["lcfd.slots_per_s"] = slots / elapsed
		out.layer["lcfd.frames_per_slot"] = delivered / max(slots, 1)
		out.layer["lcfd.slot_p50_ns"] = bucketQuantile(lat.Bounds, lat.Counts, lat.Overflow, 0.50)
		out.layer["lcfd.slot_p99_ns"] = bucketQuantile(lat.Bounds, lat.Counts, lat.Overflow, 0.99)
		if req := after.Engine.Requested - before.Engine.Requested; req > 0 {
			out.layer["lcfd.match_ratio"] = float64(after.Engine.Matched-before.Engine.Matched) / float64(req)
		}
		out.layer["lcfd.nacks"] = float64(after.Server.NacksSent - before.Server.NacksSent)
		out.layer["lcfd.protocol_errors"] = float64(after.Server.ProtocolErrors - before.Server.ProtocolErrors)
		out.layer["lcfd.dropped_no_client"] = float64(after.Server.DroppedNoClient - before.Server.DroppedNoClient)
		out.layer["lcfd.cpu_us_per_frame"] = (cpu1 - cpu0) * 1e6 / max(frames, 1)
		out.layer["lcfd.cpu_busy_share"] = (cpu1 - cpu0) / elapsed / cpus
		out.layer["bench.client_cpu_share"] = (selfCPU1 - selfCPU0) / elapsed / cpus
		out.layer["bench.write_ns"] = float64(tr.total[spWrite].ns) / max(tracedFrames, 1)
		out.layer["bench.wait_first_ns"] = float64(tr.total[spWaitFirst].ns) / max(tracedFrames, 1)
		out.layer["bench.read_ns"] = float64(tr.total[spRead].ns) / max(tracedFrames, 1)
		out.layer["bench.self_ns"] = float64(tr.total[spBatch].ns-tr.total[spWrite].ns-
			tr.total[spWaitFirst].ns-tr.total[spRead].ns) / max(tracedFrames, 1)
		out.layer["bench.segment_spread"] = spreadOf(segmentRates(marks))
		out.layer["bench.trace_overhead_share"] = traceOverhead(segmentRates(marks))
		iters := probeIters(cfg.smoke, 2000000)
		out.layer["clint.data_codec_ns"], out.layer["clint.flow_codec_ns"] = probeClint(iters)
		if flow {
			// The first client's id stream, as lcfd's table sees it.
			c := sess.clients[0]
			stream := make([]uint64, min(iters, len(c.ranks)))
			for k := range stream {
				stream[k] = c.ids[c.ranks[k]]
			}
			p := probeFlowtable(stream, wireFlowCap)
			out.layer["flowtable.steer_ns"] = p.steerNs
			out.layer["flowtable.hit_share"] = p.hitShare
			out.layer["flowtable.resident"] = float64(p.resident)
		}
		out.samples["bench.write_ns"] = tr.total[spWrite].n
		out.samples["lcfd.slot_p99_ns"] = int64(slots)
	}
	return out, nil
}

// bucketQuantile reads the q-quantile of a bucketed histogram as the
// upper bound of the bucket it falls in (the last bound for overflow).
func bucketQuantile(bounds []float64, counts []int64, overflow int64, q float64) float64 {
	total := overflow
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	target := q * float64(total)
	cum := 0.0
	for k, c := range counts {
		cum += float64(c)
		if cum >= target && k < len(bounds) {
			return bounds[k]
		}
	}
	return bounds[len(bounds)-1]
}
