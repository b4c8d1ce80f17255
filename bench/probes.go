package main

import (
	"time"

	lcf "repro"
	"repro/internal/clint"
	"repro/internal/flowtable"
	"repro/internal/pifo"
	"repro/internal/switchcore"
)

// Standalone probes: each drives one layer's public functions alone, on
// the workload's own inputs, during the traced run. They give the cost
// of a layer when nothing else contends with it — the floor its in-situ
// figure is read against.

// coreProbe is the bare datapath's cost per slot and the scheduler's
// part of it.
type coreProbe struct{ slotNs, decideNs float64 }

// probeSwitchcore drives internal/switchcore directly on the engine
// workload's arrival trace — Enqueue, ResetOutputMask, SnapshotRow per
// input, Arbitrate, Take per output — with no locks, channels or
// gauges: what a slot costs before the runtime adds its time domain.
func probeSwitchcore(arr *arrivals, slots int) coreProbe {
	n := arr.n
	inner, err := lcf.NewScheduler(engScheduler, n, lcf.Options{})
	if err != nil {
		return coreProbe{}
	}
	// The traced run's own wrapper, totals only: the same per-call work
	// (clock reads, validation, Explain forwarding) as inside the engine.
	tr := newTracer("", 0)
	s := &tracedSched{inner: inner, tr: tr}
	core := switchcore.New[lcf.RuntimeFrame](n, engCap)
	t0 := time.Now()
	for slot := 0; slot < slots; slot++ {
		base := (int64(slot) % arr.slots) * int64(n)
		for i := 0; i < n; i++ {
			if d := int(arr.dst[base+int64(i)]); d >= 0 {
				core.Enqueue(i, d, lcf.RuntimeFrame{Src: i, Dst: d, Admitted: int64(slot)})
			}
		}
		core.ResetOutputMask()
		for i := 0; i < n; i++ {
			core.SnapshotRow(i)
		}
		core.Arbitrate(s)
		for j := 0; j < n; j++ {
			core.Take(j)
		}
	}
	total := float64(time.Since(t0).Nanoseconds() - s.validateNs)
	return coreProbe{slotNs: total / float64(slots), decideNs: tr.mean(spDecide)}
}

// probePifo times one Push plus one Pop on a PIFO held at depth 16
// under the deadline ranker, the class workload's configuration.
func probePifo(iters int) float64 {
	classes, err := pifo.ParseClasses(engClasses)
	if err != nil {
		return 0
	}
	ranker, err := pifo.NewRanker(engRank, classes)
	if err != nil {
		return 0
	}
	q := pifo.NewQueue[lcf.RuntimeFrame](engCap)
	push := func(k int) {
		c := k % len(classes)
		now := int64(k / 8)
		deadline := int64(-1)
		if slo := classes[c].SLOSlots; slo > 0 {
			deadline = now + slo
		}
		q.Push(lcf.RuntimeFrame{Seq: uint64(k), Class: c}, ranker.Rank(c, now, deadline))
	}
	for k := 0; k < 16; k++ {
		push(k)
	}
	t0 := time.Now()
	for k := 16; k < 16+iters; k++ {
		push(k)
		_, rank, _ := q.Pop()
		ranker.OnPop(rank)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(iters)
}

// idlePorts is a flowtable.PortView of n healthy, empty ports.
type idlePorts int

func (p idlePorts) N() int          { return int(p) }
func (idlePorts) Backlog(int) int64 { return 0 }
func (idlePorts) Up(int) bool       { return true }

// flowProbe is the steering table's standalone cost and counts on the
// workload's flow-id stream.
type flowProbe struct {
	steerNs, hitShare float64
	resident          int64
}

func probeFlowtable(ids []uint64, capacity int) flowProbe {
	tbl, err := flowtable.New(flowtable.Config{Ports: idlePorts(wireN), Capacity: capacity})
	if err != nil {
		return flowProbe{}
	}
	t0 := time.Now()
	for _, id := range ids {
		if _, _, err := tbl.Steer(id); err != nil {
			return flowProbe{}
		}
	}
	ns := float64(time.Since(t0).Nanoseconds()) / float64(len(ids))
	st := tbl.Stats()
	return flowProbe{steerNs: ns, hitShare: 1 - float64(st.Inserted)/float64(st.Steered), resident: st.Resident}
}

// probeClint times EncodeTo plus Decode of one plain and one flow data
// frame.
func probeClint(iters int) (dataNs, flowNs float64) {
	var buf [clint.FlowDataLen]byte
	var sink uint64
	t0 := time.Now()
	for k := 0; k < iters; k++ {
		clint.Data{Dst: uint8(k), Seq: uint64(k), Stamp: sink}.EncodeTo(buf[:clint.DataLen])
		d, _ := clint.DecodeData(buf[:clint.DataLen])
		sink += d.Seq
	}
	dataNs = float64(time.Since(t0).Nanoseconds()) / float64(iters)
	t0 = time.Now()
	for k := 0; k < iters; k++ {
		clint.FlowData{Flow: sink, Dst: uint8(k), Seq: uint64(k)}.EncodeTo(buf[:])
		d, _ := clint.DecodeFlowData(buf[:])
		sink += d.Seq
	}
	flowNs = float64(time.Since(t0).Nanoseconds()) / float64(iters)
	return dataNs, flowNs
}
