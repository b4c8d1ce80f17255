package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clint"
	"repro/internal/pifo"
	rt "repro/internal/runtime"
)

// The socket loops under test are readLoop (bytes in) and outputPump
// (frames out). Lockstep engines serve the tests that only feed readLoop;
// the ones that need deliveries run a live engine behind a real listener,
// the way main wires it.

const socketTimeout = 10 * time.Second

// pipeTimeout bounds the waits of the net.Pipe harness, where nothing is
// ever slower than a goroutine switch; short, so the fuzzer reports a
// stuck input instead of sitting on it.
const pipeTimeout = 2 * time.Second

// tcpPair returns the two ends of one loopback TCP connection: host is
// the dialling side, sw the accepted one.
func tcpPair(t *testing.T) (host, sw net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type accepted struct {
		conn net.Conn
		err  error
	}
	acceptc := make(chan accepted, 1)
	go func() {
		conn, err := ln.Accept()
		acceptc <- accepted{conn, err}
	}()
	host, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	acc := <-acceptc
	if acc.err != nil {
		host.Close()
		t.Fatal(acc.err)
	}
	t.Cleanup(func() {
		host.Close()
		acc.conn.Close()
	})
	return host, acc.conn
}

// The fuzz daemon: two classes, no flow tier, and queues two frames deep
// so a short stream reaches the full-queue nack.
const (
	fuzzClasses = 2
	fuzzCap     = 2
)

func newFuzzServer(t testing.TB) *server {
	return newIdleServer(t, rt.Config{
		VOQCap:  fuzzCap,
		Classes: []pifo.Class{{Name: "a", Weight: 1}, {Name: "b", Priority: 1, Weight: 1}},
	})
}

// readLoopOracle says what readLoop must make of stream on the fuzz
// daemon, from the frame walk alone: the engine is lockstep and never
// ticked, so a queue (the VOQ for data frames, the PIFO for class frames,
// both of the connection's port) takes fuzzCap frames and then refuses.
func readLoopOracle(stream []byte) (admitted, nacked, protocolErrors int64) {
	var voq, pq [idlePorts]int
	for len(stream) > 0 {
		flen := clint.FrameLen(stream[0])
		if flen == 0 {
			return admitted, nacked, 1
		}
		if len(stream) < flen {
			return admitted, nacked, 0 // the stream ends inside a frame: EOF, no verdict
		}
		frame := stream[:flen]
		stream = stream[flen:]
		var queue *[idlePorts]int
		var dst int
		switch frame[0] {
		case clint.TypeData:
			d, err := clint.DecodeData(frame)
			if err != nil {
				return admitted, nacked, 1
			}
			queue, dst = &voq, int(d.Dst)
		case clint.TypeClassData:
			d, err := clint.DecodeClassData(frame)
			if err != nil || (int(d.Dst) < idlePorts && int(d.Class) >= fuzzClasses) {
				return admitted, nacked, 1
			}
			queue, dst = &pq, int(d.Dst)
		case clint.TypeConfig:
			if _, err := clint.DecodeConfig(frame); err != nil {
				return admitted, nacked, 1
			}
			continue
		default: // flow frames without a flow tier, and switch → host types
			return admitted, nacked, 1
		}
		if dst < idlePorts && queue[dst] < fuzzCap {
			queue[dst]++
			admitted++
		} else {
			nacked++
		}
	}
	return admitted, nacked, 0
}

// runReadLoop feeds stream to readLoop over a net.Pipe, chunk bytes per
// write (0: all at once), reads the nacks the loop answers with, closes
// the host side once the expected number arrived, and reports what came
// back. net.Pipe is unbuffered, so a nack the host did not read would
// block the loop — which is also why the host cannot simply close after
// writing: the loop may still owe nacks for frames sitting in its buffer.
func runReadLoop(t testing.TB, srv *server, stream []byte, chunk int, wantNacks int64) (nacks int64) {
	host, sw := net.Pipe()
	c := newClient(sw)
	if p := srv.assign(c); p != 0 {
		t.Fatalf("assign = %d", p)
	}
	returned := make(chan struct{})
	go func() {
		srv.readLoop(c)
		sw.Close() // as serveConn does; unblocks the host's writer
		close(returned)
	}()

	var got atomic.Int64
	reached := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		if wantNacks == 0 {
			close(reached)
		}
		var frame [clint.NackLen]byte
		for {
			if _, err := io.ReadFull(host, frame[:]); err != nil {
				return
			}
			if _, err := clint.DecodeNack(frame[:]); err != nil {
				t.Errorf("the loop wrote something that is not a nack: %v", err)
				return
			}
			if got.Add(1) == wantNacks {
				close(reached)
			}
		}
	}()

	if chunk <= 0 {
		chunk = len(stream)
	}
	for off := 0; off < len(stream); off += chunk {
		end := off + chunk
		if end > len(stream) {
			end = len(stream)
		}
		if _, err := host.Write(stream[off:end]); err != nil {
			break // the loop gave up on the stream (protocol error)
		}
	}
	select {
	case <-reached:
	case <-returned:
	case <-time.After(pipeTimeout):
		t.Errorf("%d of %d nacks arrived within %v", got.Load(), wantNacks, pipeTimeout)
	}
	host.Close()
	select {
	case <-returned:
	case <-time.After(pipeTimeout):
		t.Fatal("readLoop did not return on EOF")
	}
	<-readerDone
	return got.Load()
}

// FuzzReadLoop throws arbitrary byte streams, arbitrarily chunked, at the
// connection read loop and holds it to readLoopOracle: the same frames
// admitted, nacked and rejected, a return on EOF, and no panic.
func FuzzReadLoop(f *testing.F) {
	data := func(dst uint8, seq uint64) []byte { return clint.Data{Dst: dst, Seq: seq, Stamp: seq}.Encode() }
	var window []byte
	for k := 0; k < 64; k++ {
		window = append(window, data(uint8(k%idlePorts), uint64(k))...)
	}
	corrupt := data(1, 1)
	corrupt[5] ^= 0x40
	f.Add([]byte{}, uint8(0))
	f.Add(window, uint8(0))
	f.Add(window, uint8(7))
	f.Add(append(data(0, 1), data(9, 2)...), uint8(1)) // second frame: no such port
	f.Add(append(data(2, 1), corrupt...), uint8(0))
	f.Add(data(3, 1)[:clint.DataLen-3], uint8(2)) // ends inside a frame
	f.Add(append(clint.ClassData{Class: 1, Dst: 2, Seq: 1, Deadline: 9}.Encode(), clint.ClassData{Class: 7, Dst: 2, Seq: 2}.Encode()...), uint8(5))
	f.Add(append(clint.Config{}.Encode(), clint.FlowData{Flow: 1, Dst: 1, Seq: 1}.Encode()...), uint8(0))
	f.Add(clint.Grant{NodeID: 1, Gnt: 1, GntVal: true}.Encode(), uint8(0))
	f.Add(clint.Nack{Seq: 3}.Encode(), uint8(3))
	f.Add([]byte{0x00, 0xDA, 0xDA}, uint8(1))

	f.Fuzz(func(t *testing.T, stream []byte, chunk uint8) {
		srv := newFuzzServer(t)
		admitted, nacked, protocolErrors := readLoopOracle(stream)
		nacks := runReadLoop(t, srv, stream, int(chunk), nacked)
		snap := srv.engine.Snapshot()
		if snap.Admitted != admitted || nacks != nacked || srv.nacksSent.Value() != nacked ||
			srv.protocolErrors.Value() != protocolErrors {
			t.Fatalf("admitted %d, nacks read %d / counted %d, protocol errors %d; oracle says %d, %d, %d",
				snap.Admitted, nacks, srv.nacksSent.Value(), srv.protocolErrors.Value(),
				admitted, nacked, protocolErrors)
		}
	})
}

// TestReadLoopSplitDelivery: frame boundaries mean nothing to the
// transport. A 64-frame window arriving a byte at a time, or in pieces
// that straddle every frame edge differently, admits the same 64 frames.
func TestReadLoopSplitDelivery(t *testing.T) {
	var window []byte
	for k := 0; k < 64; k++ {
		window = append(window, clint.Data{Dst: uint8(k % 4), Seq: uint64(k), Stamp: uint64(k)}.Encode()...)
	}
	for _, chunk := range []int{1, 17, 19} {
		srv := newIdleServer(t, rt.Config{})
		if nacks := runReadLoop(t, srv, window, chunk, 0); nacks != 0 {
			t.Errorf("chunk %d: %d nacks", chunk, nacks)
		}
		if got := srv.engine.Snapshot().Admitted; got != 64 {
			t.Errorf("chunk %d: admitted %d frames, want 64", chunk, got)
		}
		if got := srv.protocolErrors.Value(); got != 0 {
			t.Errorf("chunk %d: %d protocol errors", chunk, got)
		}
	}
}

// TestReadLoopMalformedFlowFrames: a flow frame whose destination is not a
// port of this switch (Dst is a byte on the wire, -n is at most 16) is
// nacked like any bad port — and leaves no flow behind. One client
// sending such frames under fresh flow ids must not be able to fill the
// steering table and have every well-formed new flow nacked as table-full
// until idle eviction.
func TestReadLoopMalformedFlowFrames(t *testing.T) {
	srv := newIdleServer(t, rt.Config{Flows: 8, FlowShards: 1}) // as -n 4 -flows 8
	resident := func() int64 {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.handleFlows(rec, httptest.NewRequest(http.MethodGet, "/flows", nil))
		var p flowsPayload
		if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil || p.Flows == nil {
			t.Fatalf("GET /flows: %v: %s", err, rec.Body.String())
		}
		return p.Flows.Resident
	}
	if got := resident(); got != 0 {
		t.Fatalf("resident flows before any frame = %d", got)
	}

	// One malformed frame per bucket: twice what the table admits.
	shards, buckets := srv.engine.Flows().Caps()
	malformed := int64(shards * buckets)
	var stream []byte
	for k := uint64(0); k < uint64(malformed); k++ {
		stream = append(stream, clint.FlowData{Flow: 1 + k, Dst: 200, Seq: k}.Encode()...)
	}
	stream = append(stream, clint.FlowData{Flow: 999, Dst: 1, Seq: uint64(malformed)}.Encode()...)
	if nacks := runReadLoop(t, srv, stream, 0, malformed); nacks != malformed {
		t.Errorf("%d nacks for %d frames toward port 200 and one well-formed frame", nacks, malformed)
	}
	if got := srv.protocolErrors.Value(); got != 0 {
		t.Errorf("%d protocol errors: a bad port is backpressure, not a protocol violation", got)
	}
	if got := srv.engine.Snapshot().Admitted; got != 1 {
		t.Errorf("admitted %d frames, want the one well-formed frame", got)
	}
	if got := resident(); got != 1 {
		t.Errorf("resident flows = %d, want only the well-formed frame's flow", got)
	}
	if st := srv.engine.Flows().Stats(); st.Rejected != 0 || st.Inserted != 1 {
		t.Errorf("flow table after the stream: %+v", st)
	}
}

// liveServer is a daemon as main wires it — live engine, one pump per
// output, a listener whose connections run serveConn — on a loopback port.
type liveServer struct {
	*server
	addr string
	stop func() // close listener and connections, drain the engine, wait for the pumps; idempotent
}

// startLiveServer starts one. sndbuf > 0 shrinks the accepted sockets'
// send buffers, so a stalled peer backs up after kilobytes, not megabytes.
func startLiveServer(t *testing.T, outCap, sndbuf int) *liveServer {
	t.Helper()
	srv := newIdleServer(t, rt.Config{
		VOQCap: 64, OutCap: outCap,
		SlotPeriod: time.Microsecond, FaultPolicy: rt.DropStranded, // as the benchmark runs lcfd
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.engine.Start(); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < srv.n; j++ {
		srv.wg.Add(1)
		go srv.outputPump(j)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if sndbuf > 0 {
				conn.(*net.TCPConn).SetWriteBuffer(sndbuf)
			}
			go srv.serveConn(conn)
		}
	}()
	var once sync.Once
	ls := &liveServer{server: srv, addr: ln.Addr().String()}
	ls.stop = func() {
		once.Do(func() {
			ln.Close()
			srv.closeConns()
			srv.engine.Close()
			srv.wg.Wait()
		})
	}
	t.Cleanup(ls.stop)
	return ls
}

// stopWithin runs stop and fails the test if a pump or a connection keeps
// it from returning.
func (ls *liveServer) stopWithin(t *testing.T, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		ls.stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("daemon did not shut down within %v: a pump or a connection is stuck", d)
	}
}

// checkLedger asserts the delivery ledger after shutdown: every frame the
// engine delivered was either accepted by a socket write or counted as
// dropped.
func (ls *liveServer) checkLedger(t *testing.T) {
	t.Helper()
	delivered := ls.engine.Snapshot().Delivered
	written, dropped := ls.framesWritten.Value(), ls.droppedNoClient.Value()
	if delivered != written+dropped {
		t.Fatalf("ledger: engine delivered %d, sockets took %d + dropped %d = %d (%d unaccounted)",
			delivered, written, dropped, written+dropped, delivered-written-dropped)
	}
	t.Logf("ledger: delivered %d = written %d + dropped %d", delivered, written, dropped)
}

// testHost is a client of a liveServer.
type testHost struct {
	conn          net.Conn
	port          uint8
	echoes, nacks atomic.Int64 // frames readAll has seen
}

func dialHost(t *testing.T, addr string) *testHost {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, socketTimeout)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	var hello [clint.GrantLen]byte
	conn.SetReadDeadline(time.Now().Add(socketTimeout))
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		t.Fatalf("reading the hello: %v", err)
	}
	conn.SetReadDeadline(time.Time{})
	g, err := clint.DecodeGrant(hello[:])
	if err != nil || !g.GntVal {
		t.Fatalf("hello %+v, %v", g, err)
	}
	return &testHost{conn: conn, port: g.NodeID}
}

// readAll counts what the switch sends until the connection ends.
func (h *testHost) readAll() {
	br := bufio.NewReader(h.conn)
	var frame [clint.DataLen]byte
	for {
		typ, err := br.ReadByte()
		if err != nil {
			return
		}
		flen := clint.FrameLen(typ)
		if flen == 0 || flen > len(frame) {
			return
		}
		if _, err := io.ReadFull(br, frame[1:flen]); err != nil {
			return
		}
		if typ == clint.TypeNack {
			h.nacks.Add(1)
		} else {
			h.echoes.Add(1)
		}
	}
}

// send writes count data frames toward dst in one write.
func (h *testHost) send(dst uint8, count int, seq0 uint64) error {
	buf := make([]byte, count*clint.DataLen)
	for k := 0; k < count; k++ {
		clint.Data{Dst: dst, Seq: seq0 + uint64(k)}.EncodeTo(buf[k*clint.DataLen:])
	}
	_, err := h.conn.Write(buf)
	return err
}

// waitFor polls cond until it holds or the socket timeout passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(socketTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestKilledClientLedger kills a receiving client in the middle of a
// burst addressed to it and balances the books afterwards: whatever the
// engine delivered on its port was written to its socket or counted as
// dropped — nothing is lost between the output channel and the wire.
func TestKilledClientLedger(t *testing.T) {
	ls := startLiveServer(t, 256, 0)
	victim := dialHost(t, ls.addr)
	sender := dialHost(t, ls.addr)
	go sender.readAll() // nacks: a full VOQ, then a port that is down

	// The burst lasts until the test ends it, a window per write.
	var stopBurst atomic.Bool
	burstDone := make(chan struct{})
	go func() {
		defer close(burstDone)
		for seq := uint64(0); !stopBurst.Load(); seq += 64 {
			if sender.send(victim.port, 64, seq) != nil {
				return
			}
		}
	}()

	// The victim reads part of the burst, falls behind, and dies with the
	// rest in flight: in the engine's queues, its output channel, the
	// pump's batch and the socket.
	const share = 2000
	got := make([]byte, share*clint.DataLen)
	victim.conn.SetReadDeadline(time.Now().Add(socketTimeout))
	if _, err := io.ReadFull(victim.conn, got); err != nil {
		t.Fatalf("victim reading its share: %v", err)
	}
	waitFor(t, "deliveries the victim has not read", func() bool {
		return ls.engine.Stats().Delivered.Value() >= share+2*maxWriteBatch
	})
	victim.conn.Close()
	waitFor(t, "the victim's port to be released", func() bool {
		in, out := ls.engine.LinkDown(int(victim.port))
		return in && out
	})
	nacks := sender.nacks.Load()
	waitFor(t, "the burst to outlive the victim", func() bool { return sender.nacks.Load() > nacks })
	stopBurst.Store(true)
	<-burstDone

	ls.stopWithin(t, socketTimeout)
	ls.checkLedger(t)
	if written := ls.framesWritten.Value(); written < share {
		t.Fatalf("victim read %d frames but only %d count as written", share, written)
	}
}

// TestSlowReaderBackpressure stalls one client and watches the chain the
// pump's comment promises: its pump blocks in the write, its output
// channel fills, the arbiter masks its column — while another port's echo
// keeps flowing — and closing the stalled connection releases the pump,
// with the frames it was holding counted as dropped.
func TestSlowReaderBackpressure(t *testing.T) {
	ls := startLiveServer(t, 8, 2048)
	stalled := dialHost(t, ls.addr)
	stalled.conn.(*net.TCPConn).SetReadBuffer(2048)
	busy := dialHost(t, ls.addr)
	go busy.readAll()

	// Flood the stalled port until its pump is stuck: over 50 ms the
	// arbiter keeps finding the output channel full (the mask count rises
	// every slot, the queued frames keeping it awake) and no write
	// completes. A mask alone is not it — an 8-deep channel also fills
	// for a moment whenever the arbiter outruns a healthy pump.
	masked := func() int64 { return ls.engine.Stats().MaskedOutputs.Value() }
	stuck := func() bool {
		m, w := masked(), ls.framesWritten.Value()
		if m == 0 {
			return false
		}
		time.Sleep(50 * time.Millisecond)
		return masked() > m && ls.framesWritten.Value() == w
	}
	deadline := time.Now().Add(3 * socketTimeout)
	var seq uint64
	for !stuck() {
		if time.Now().After(deadline) {
			t.Fatalf("pump never blocked after %d frames toward a client that does not read (written %d, masked %d)",
				seq, ls.framesWritten.Value(), masked())
		}
		if err := busy.send(stalled.port, 64, seq); err != nil {
			t.Fatal(err)
		}
		seq += 64
	}
	t.Logf("pump blocked after %d frames offered; %d reached the stalled socket", seq, ls.framesWritten.Value())

	// The stalled port's pump is inside a write that cannot finish; the
	// other port is unaffected.
	echoed := busy.echoes.Load()
	if err := busy.send(busy.port, 50, 1<<32); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the busy port's echo while its neighbour is stalled", func() bool {
		return busy.echoes.Load() >= echoed+50
	})
	dropped := ls.droppedNoClient.Value()
	stalled.conn.Close()
	waitFor(t, "the blocked batch to be counted as dropped", func() bool {
		return ls.droppedNoClient.Value() > dropped
	})
	ls.stopWithin(t, socketTimeout)
	ls.checkLedger(t)
}

// TestHalfOpenClientLosesItsPort: a client that takes its hello and never
// reads again — a host gone without closing its connection — holds its
// port's pump in a write only for a bounded time. The write then fails,
// the batch counts as dropped, the connection closes, and the port is
// released with its links failed.
func TestHalfOpenClientLosesItsPort(t *testing.T) {
	srv := newIdleServer(t, rt.Config{})
	host, sw := net.Pipe()
	served := make(chan struct{})
	go func() {
		srv.serveConn(sw)
		close(served)
	}()
	var hello [clint.GrantLen]byte
	host.SetReadDeadline(time.Now().Add(pipeTimeout))
	if _, err := io.ReadFull(host, hello[:]); err != nil {
		t.Fatalf("reading the hello: %v", err)
	}
	g, err := clint.DecodeGrant(hello[:])
	if err != nil || !g.GntVal {
		t.Fatalf("hello %+v, %v", g, err)
	}
	port := int(g.NodeID)

	// One frame to the client's own port, delivered to a pump whose write
	// nobody on the host side will ever read.
	if err := srv.engine.Admit(port, port, 1, 0); err != nil {
		t.Fatal(err)
	}
	srv.engine.Tick()
	srv.wg.Add(1)
	go srv.outputPump(port)
	defer func() {
		host.Close() // frees a pump still stuck in the write
		srv.engine.Close()
		srv.wg.Wait()
	}()

	select {
	case <-served:
	case <-time.After(socketTimeout):
		t.Fatalf("a client that does not read still holds port %d after %v", port, socketTimeout)
	}
	if d, w := srv.droppedNoClient.Value(), srv.framesWritten.Value(); d != 1 || w != 0 {
		t.Errorf("dropped %d, written %d; want the one frame dropped", d, w)
	}
	if srv.lookup(port) != nil {
		t.Errorf("port %d still has an owner", port)
	}
	srv.engine.Tick() // applies the release's link failure
	if in, out := srv.engine.LinkDown(port); !in || !out {
		t.Errorf("port %d links down = %v, %v; want both failed", port, in, out)
	}
}
