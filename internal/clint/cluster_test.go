package clint

import (
	"testing"

	"repro/internal/packet"
)

func TestHostConfigReflectsVOQs(t *testing.T) {
	pool := packet.NewPool()
	h := NewHost(2, 16, pool)
	h.Enqueue(pool.Get(2, 5, 0))
	h.Enqueue(pool.Get(2, 9, 0))
	cfg, err := DecodeConfig(h.BuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Req != 1<<5|1<<9 {
		t.Fatalf("Req = %#x", cfg.Req)
	}
	if cfg.Ben != 0xFFFF || cfg.Qen != 0xFFFF {
		t.Fatal("fresh host advertises disabled peers")
	}
}

func TestHostDisable(t *testing.T) {
	h := NewHost(0, 4, packet.NewPool())
	h.Disable(3)
	h.Disable(-1) // ignored
	h.Disable(99) // ignored
	cfg, _ := DecodeConfig(h.BuildConfig())
	if cfg.Ben != ^uint16(1<<3) || cfg.Qen != ^uint16(1<<3) {
		t.Fatalf("masks %#x/%#x", cfg.Ben, cfg.Qen)
	}
}

func TestHostProcessGrant(t *testing.T) {
	h := NewHost(4, 4, packet.NewPool())
	j, err := h.ProcessGrant(Grant{NodeID: 4, Gnt: 7, GntVal: true}.Encode())
	if err != nil || j != 7 {
		t.Fatalf("grant: %d, %v", j, err)
	}
	j, err = h.ProcessGrant(Grant{NodeID: 4}.Encode())
	if err != nil || j != -1 {
		t.Fatalf("invalid grant: %d, %v", j, err)
	}
	if _, err = h.ProcessGrant(Grant{NodeID: 9}.Encode()); err == nil {
		t.Fatal("misdelivered grant accepted")
	}
	if _, err = h.ProcessGrant([]byte{1, 2}); err == nil {
		t.Fatal("garbage frame accepted")
	}
	h.ProcessGrant(Grant{NodeID: 4, CRCErr: true}.Encode())
	if h.CRCErrSeen != 1 {
		t.Fatalf("CRCErrSeen = %d", h.CRCErrSeen)
	}
}

func TestNewHostValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range host id did not panic")
		}
	}()
	NewHost(16, 4, packet.NewPool())
}

// TestClusterEndToEnd runs the whole bulk channel — encoded configuration
// packets in, encoded grant packets out, three-stage pipeline, VOQ
// transfers — and checks delivery and conservation.
func TestClusterEndToEnd(t *testing.T) {
	c := NewCluster(0.6, 256, 1)
	const slots = 2000
	for s := 0; s < slots; s++ {
		if err := c.Step(); err != nil {
			t.Fatalf("slot %d: %v", s, err)
		}
	}
	if c.Delivered == 0 {
		t.Fatal("no packets delivered")
	}
	// Throughput sanity: at load 0.6 the scheduler keeps up, so deliveries
	// track arrivals (allowing for in-flight backlog at the horizon).
	perHostPerSlot := float64(c.Delivered) / (slots * NumPorts)
	if perHostPerSlot < 0.55 || perHostPerSlot > 0.65 {
		t.Fatalf("delivered rate %.3f, offered 0.6", perHostPerSlot)
	}
	// Minimum delay: generated at slot t, scheduled earliest t+1,
	// transferred t+2, acked t+3... mean must exceed the pipeline floor.
	if c.MeanDelay() < 2 {
		t.Fatalf("mean delay %.2f below the pipeline floor", c.MeanDelay())
	}
	if c.DroppedFull != 0 {
		t.Fatalf("%d drops with 256-deep VOQs at load 0.6", c.DroppedFull)
	}
}

func TestClusterDeterministic(t *testing.T) {
	run := func() (int64, float64) {
		c := NewCluster(0.8, 64, 7)
		for s := 0; s < 800; s++ {
			if err := c.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return c.Delivered, c.MeanDelay()
	}
	d1, m1 := run()
	d2, m2 := run()
	if d1 != d2 || m1 != m2 {
		t.Fatalf("replay diverged: %d/%g vs %d/%g", d1, m1, d2, m2)
	}
}

func TestClusterCorruptionPath(t *testing.T) {
	c := NewCluster(0.5, 64, 3)
	c.CorruptRate = 0.2
	for s := 0; s < 1000; s++ {
		if err := c.Step(); err != nil {
			t.Fatalf("slot %d: %v", s, err)
		}
	}
	// Corrupt configuration frames must be detected (CRCErr grants) and
	// the cluster must keep delivering regardless — the host re-announces
	// its queues next cycle.
	var seen int64
	for _, h := range c.Hosts {
		seen += h.CRCErrSeen
	}
	if seen == 0 {
		t.Fatal("no CRC errors observed at 20% corruption")
	}
	if c.Delivered == 0 {
		t.Fatal("cluster stalled under corruption")
	}
	// Expected corruption events ≈ slots·hosts·rate; CRC-16 misses a
	// 16-bit checksum collision at ~2^-16, so nearly all are seen.
	expect := float64(1000*NumPorts) * 0.2
	if float64(seen) < 0.8*expect {
		t.Fatalf("saw %d CRC errors, expected ≈%.0f", seen, expect)
	}
}

func TestClusterPrecalcMulticastDelivery(t *testing.T) {
	// A host announcing a precalculated multicast gets both targets
	// reserved; since the cluster transfers bulk packets per grant, its
	// regular traffic is unaffected on other targets.
	c := NewCluster(0, 64, 5) // no background traffic
	c.Hosts[3].SetPrecalc(1<<1 | 1<<3)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	tr, _ := c.Pipe.InFlight()
	if tr == nil || tr.Result == nil {
		t.Fatal("no schedule in flight")
	}
	if tr.Result.OutToIn[1] != 3 || tr.Result.OutToIn[3] != 3 {
		t.Fatalf("precalc multicast not in schedule: %v", tr.Result.OutToIn[:4])
	}
}

func TestClusterBackpressureDrops(t *testing.T) {
	// Tiny VOQs at full load must overflow; drops are counted, never
	// silently lost.
	c := NewCluster(1.0, 1, 11)
	for s := 0; s < 500; s++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if c.DroppedFull == 0 {
		t.Fatal("no drops with 1-deep VOQs at load 1.0")
	}
	if c.Backlog() > NumPorts*NumPorts {
		t.Fatalf("backlog %d exceeds total VOQ capacity", c.Backlog())
	}
}

// TestClusterNackRequeue covers the NACK requeue on 1-deep VOQs at full
// load with corrupted data frames. In the cluster the NACK resolves in
// the slot its cell left, so every NACKed cell goes back into the place
// it vacated: no cell is lost or duplicated and the backlog never exceeds
// the sixteen hosts' 16·16 VOQ slots. The host half builds the case the
// cluster cannot reach — an arrival refilling the VOQ behind the
// in-flight cell — where the requeue must refuse instead of growing the
// ring past its bound.
func TestClusterNackRequeue(t *testing.T) {
	const slots = 2000
	c := NewCluster(1.0, 1, 13)
	c.DataCorruptRate = 0.2
	for s := 0; s < slots; s++ {
		if err := c.Step(); err != nil {
			t.Fatalf("slot %d: %v", s, err)
		}
		if b := c.Backlog(); b > NumPorts*NumPorts {
			t.Fatalf("slot %d: backlog %d exceeds total VOQ capacity", s, b)
		}
	}
	if c.Retransmissions == 0 || c.Retransmissions != c.NACKs {
		t.Fatalf("%d NACKs, %d requeued", c.NACKs, c.Retransmissions)
	}
	// Load 1.0 generates one cell per host per slot.
	if got := c.Delivered + c.DroppedFull + int64(c.Backlog()); got != slots*NumPorts {
		t.Fatalf("delivered %d + dropped %d + queued %d = %d, generated %d",
			c.Delivered, c.DroppedFull, c.Backlog(), got, slots*NumPorts)
	}

	pool := packet.NewPool()
	h := NewHost(0, 1, pool)
	first, second := pool.Get(0, 3, 0), pool.Get(0, 3, 1)
	h.Enqueue(first)
	if h.PopFor(3) != first {
		t.Fatal("PopFor did not return the queued cell")
	}
	h.Enqueue(second)
	if h.requeue(first) {
		t.Fatal("requeue into a refilled 1-deep VOQ succeeded")
	}
	if h.Backlog() != 1 || h.PopFor(3) != second {
		t.Fatal("refused requeue disturbed the VOQ")
	}
	if !h.requeue(first) || h.PopFor(3) != first {
		t.Fatal("requeue into an empty VOQ failed")
	}
}
