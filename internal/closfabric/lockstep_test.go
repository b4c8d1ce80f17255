package closfabric_test

import (
	"errors"
	"slices"
	"testing"

	cf "repro/internal/closfabric"
	"repro/internal/rng"
	rt "repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/sched/registry"
)

// TestFabricLockstepDegenerate pins the fabric to the single-engine
// runtime, frame for frame: a degenerate C(1,1,n) Clos — n 1×1 ingress
// switches, ONE n×n middle switch, n 1×1 egress switches — must schedule
// bit-identically to a standalone n×n engine, because the 1×1 edge
// switches are transparent one-slot delays. Concretely, with the
// reference engine fed the fabric's admissions delayed by exactly one
// slot:
//
//   - the middle engine's grant vector at fabric slot s equals the
//     reference engine's at its slot s, for every slot;
//   - every output delivers the identical frame sequence, each fabric
//     delivery landing exactly one slot after its reference delivery.
//
// This is the cross-check that makes the whole fabric trustworthy: any
// drift in link timing, admission ordering or scheduler seeding breaks
// the comparison loudly. It runs under both a deterministic scheduler and
// a seeded randomized one, so SchedulerSeed's derivation is load-bearing.
func TestFabricLockstepDegenerate(t *testing.T) {
	for _, schedName := range []string{"lcf_central_rr", "islip"} {
		t.Run(schedName, func(t *testing.T) { lockstepDegenerate(t, schedName) })
	}
}

// del is one recorded delivery: which frame left, and on which slot.
type del struct {
	seq  uint64
	slot int64
}

func lockstepDegenerate(t *testing.T, schedName string) {
	const (
		n     = 8
		slots = 600
		seed  = 99
		load  = 0.7
	)

	var fabGrants [][]int
	fabDel := make([][]del, n)
	f, err := cf.New(cf.Config{
		M: 1, K: 1, R: n,
		Engine: rt.Spec{Scheduler: schedName, Iterations: 4, Seed: seed},
		OnStageSlot: func(stage uint8, idx int, ev rt.SlotEvent) {
			if stage == cf.StageMiddle {
				fabGrants = append(fabGrants, slices.Clone(ev.Grants.Src))
			}
		},
		OnDeliver: func(d cf.Delivery) {
			fabDel[d.Dst] = append(fabDel[d.Dst], del{seq: d.Seq, slot: d.DeliveredSlot})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.N() != n {
		t.Fatalf("degenerate fabric has %d external ports, want %d", f.N(), n)
	}

	// The reference engine must run the exact scheduler shape the fabric
	// gave its middle switch: same name, same options, same derived seed.
	// SchedulerSeed is exported precisely for this construction.
	refSched, err := registry.New(schedName, n, sched.Options{
		Iterations: 4,
		Seed:       cf.SchedulerSeed(seed, cf.StageMiddle, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	var refGrants [][]int
	ref, err := rt.New(rt.Config{
		N:         n,
		Scheduler: refSched,
		OnSlot:    func(ev rt.SlotEvent) { refGrants = append(refGrants, slices.Clone(ev.Grants.Src)) },
	})
	if err != nil {
		t.Fatal(err)
	}

	refDel := make([][]del, n)
	collectRef := func() {
		for j := 0; j < n; j++ {
			for {
				select {
				case fr := <-ref.Output(j):
					refDel[j] = append(refDel[j], del{seq: fr.Seq, slot: fr.Departed})
				default:
					goto next
				}
			}
		next:
		}
	}

	type sent struct {
		src, dst int
		seq      uint64
	}
	traffic := rng.NewPCG32(2024, 5)
	var pending []sent // fabric admissions of the current slot, fed to ref next slot

	step := func(admit bool) {
		// Reference first: last slot's fabric admissions, one slot late.
		for _, p := range pending {
			if err := ref.Admit(p.src, p.dst, p.seq, 0); err != nil {
				t.Fatalf("reference Admit: %v", err)
			}
		}
		pending = pending[:0]
		if admit {
			for p := 0; p < n; p++ {
				if !traffic.Bool(load) {
					continue
				}
				dst := traffic.Intn(n)
				seq := traffic.Uint64()
				err := f.Admit(p, dst, seq, 0)
				if errors.Is(err, cf.ErrBackpressure) {
					continue // the reference only sees what the fabric accepted
				}
				if err != nil {
					t.Fatalf("fabric Admit: %v", err)
				}
				pending = append(pending, sent{src: p, dst: dst, seq: seq})
			}
		}
		if err := f.Tick(); err != nil {
			t.Fatal(err)
		}
		ref.Tick()
		collectRef()
	}

	for s := 0; s < slots; s++ {
		step(true)
	}
	for s := 0; f.Resident() > 0 && s < 10*n; s++ {
		step(false)
	}
	if f.Resident() > 0 {
		t.Fatalf("%d frames still resident after drain", f.Resident())
	}

	fabSlots := int(f.Slot())
	if len(fabGrants) != fabSlots || len(refGrants) != fabSlots {
		t.Fatalf("recorded %d fabric / %d reference grant vectors over %d slots",
			len(fabGrants), len(refGrants), fabSlots)
	}
	for s := range fabGrants {
		if !slices.Equal(fabGrants[s], refGrants[s]) {
			t.Fatalf("%s: grant vectors diverge at slot %d:\nfabric:    %v\nreference: %v",
				schedName, s, fabGrants[s], refGrants[s])
		}
	}

	for j := 0; j < n; j++ {
		if len(fabDel[j]) != len(refDel[j]) {
			t.Fatalf("output %d: fabric delivered %d frames, reference %d",
				j, len(fabDel[j]), len(refDel[j]))
		}
		for i := range fabDel[j] {
			fd, rd := fabDel[j][i], refDel[j][i]
			if fd.seq != rd.seq {
				t.Fatalf("output %d delivery %d: fabric seq %d, reference seq %d",
					j, i, fd.seq, rd.seq)
			}
			if fd.slot != rd.slot+1 {
				t.Fatalf("output %d delivery %d (seq %d): fabric slot %d, reference slot %d (want reference+1)",
					j, i, fd.seq, fd.slot, rd.slot)
			}
		}
	}
}
