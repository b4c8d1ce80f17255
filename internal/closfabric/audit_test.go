package closfabric

import (
	"strings"
	"testing"
)

// newLoaded builds a C(2,2,2) fabric with one frame admitted and carried
// one slot, so it sits in an ingress output channel when the test takes
// over the books.
func newLoaded(t *testing.T) *Fabric {
	t.Helper()
	f, err := New(Config{M: 2, K: 2, R: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Admit(0, 3, 7, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Tick(); err != nil {
		t.Fatal(err)
	}
	return f
}

// tickFails requires the next Tick to fail naming every fragment.
func tickFails(t *testing.T, f *Fabric, fragments ...string) {
	t.Helper()
	err := f.Tick()
	if err == nil {
		t.Fatal("Tick accepted corrupt books")
	}
	for _, frag := range fragments {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("Tick error %q does not name %q", err, frag)
		}
	}
}

// TestFabricLinkFrameWithDeadSlabFailsTick frees the slab entry of a frame
// still inside the fabric: the link that pops it must refuse it instead of
// routing a frame whose identity is gone.
func TestFabricLinkFrameWithDeadSlabFailsTick(t *testing.T) {
	f := newLoaded(t)
	f.freeSlab(0)
	tickFails(t, f, "dead slab index 0 on a link")
}

// TestFabricAuditReportsBreakdown forces the counters and the books apart
// both ways the audit checks: the conservation equation (a phantom
// injection) and the slab population (an entry no frame holds). Each must
// fail Tick with its breakdown.
func TestFabricAuditReportsBreakdown(t *testing.T) {
	t.Run("conservation", func(t *testing.T) {
		f := newLoaded(t)
		f.met.Injected.Inc()
		tickFails(t, f, "injected 2 != delivered 0 + dropped 0 + resident 1", "(1 frames vanished)", "(backlog ", "channels ", "holds ")
	})
	t.Run("slab", func(t *testing.T) {
		f := newLoaded(t)
		f.allocSlab(meta{})
		tickFails(t, f, "slab accounting diverged", "2 live entries, 1 frames resident")
	})
}
