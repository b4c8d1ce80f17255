package runtime_test

import (
	"fmt"
	"testing"

	rt "repro/internal/runtime"
	"repro/internal/simswitch"
	"repro/internal/switchcore"
	"repro/internal/traffic"
)

// TestCICQRuntimeMatchesSimswitch drives the live CICQ engine in
// deterministic lockstep against the offline CICQ simulator on the same
// arrival trace, asserting identical per-slot, per-output grant vectors.
// Both machines instantiate their own switchcore.CICQ, so this pins
// the two time-domain drivers to the same dispatch/pull arbiter
// sequencing — the CICQ analogue of TestRuntimeMatchesSimswitch,
// including the same "Tick, then admit slot t's arrivals" alignment.
// Odd widths put the bitvec column scans' last-word masking on the
// critical path.
func TestCICQRuntimeMatchesSimswitch(t *testing.T) {
	for _, tc := range []struct {
		n, slots int
	}{
		{8, 2000},
		{17, 300},
		{63, 300},
		{65, 300},
	} {
		t.Run(fmt.Sprintf("n%d", tc.n), func(t *testing.T) {
			cicqLockstepCompare(t, tc.n, tc.slots)
		})
	}
}

func cicqLockstepCompare(t *testing.T, n, slots int) {
	const (
		load  = 0.85
		seed  = 42
		cap   = 4096
		xpCap = 4
	)
	arrivals := genArrivals(n, load, seed, slots)

	// Offline reference: record each slot's grant vector.
	var simGrants [][]int
	_, err := simswitch.Run(simswitch.Config{
		N:            n,
		Mode:         simswitch.CICQ,
		Gen:          traffic.NewTrace(n, arrivals),
		VOQCap:       cap,
		PQCap:        cap,
		XPCap:        xpCap,
		MeasureSlots: int64(slots),
		Trace: func(ev simswitch.TraceEvent) {
			simGrants = append(simGrants, append([]int(nil), ev.Grants.Src...))
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Live engine, lockstep.
	var rtGrants [][]int
	e, err := rt.New(rt.Config{
		N:        n,
		Datapath: switchcore.DatapathCICQ,
		VOQCap:   cap,
		OutCap:   4,
		XPCap:    xpCap,
		OnSlot: func(ev rt.SlotEvent) {
			rtGrants = append(rtGrants, append([]int(nil), ev.Grants.Src...))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var deliveredRT int64
	for tt := 0; tt < slots; tt++ {
		e.Tick()
		for i, dst := range arrivals[tt] {
			if dst == traffic.NoPacket {
				continue
			}
			if err := e.Admit(i, dst, uint64(tt), 0); err != nil {
				t.Fatalf("slot %d: Admit(%d,%d): %v", tt, i, dst, err)
			}
		}
		for j := 0; j < n; j++ {
			for {
				select {
				case <-e.Output(j):
					deliveredRT++
					continue
				default:
				}
				break
			}
		}
	}

	if len(simGrants) != slots || len(rtGrants) != slots {
		t.Fatalf("recorded %d sim / %d runtime grant vectors, want %d", len(simGrants), len(rtGrants), slots)
	}
	for tt := 0; tt < slots; tt++ {
		if err := equalGrants(simGrants[tt], rtGrants[tt]); err != nil {
			t.Fatalf("slot %d: %v\n  sim: %v\n  rt:  %v", tt, err, simGrants[tt], rtGrants[tt])
		}
	}
	if d := e.Snapshot().Delivered; d != deliveredRT {
		t.Fatalf("engine counted %d deliveries, consumer saw %d", d, deliveredRT)
	}
}
