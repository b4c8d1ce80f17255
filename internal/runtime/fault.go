package runtime

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// ErrPortDown reports an Admit against a failed link: the frame was not
// accepted because its source input or destination output is currently
// marked down via FailInput/FailOutput.
var ErrPortDown = errors.New("runtime: port link down")

// FaultPolicy selects what happens to frames already queued in a VOQ
// when the VOQ's input or output link fails.
type FaultPolicy int

const (
	// HoldStranded keeps stranded frames queued. They stop being
	// advertised to the scheduler (their request bits are fault-masked)
	// but survive in place and resume service within one slot of
	// recovery. Close's bounded drain gives up on them; they are then
	// accounted in the Undrained gauge.
	HoldStranded FaultPolicy = iota
	// DropStranded flushes stranded frames at the top of every slot
	// while their link is down, counting them in DroppedFault. This is
	// the disposition a front-end wants when a failed port means the
	// consumer is gone for good (cmd/lcfd's default for disconnected
	// clients).
	DropStranded
)

func (p FaultPolicy) String() string {
	switch p {
	case HoldStranded:
		return "hold"
	case DropStranded:
		return "drop"
	default:
		return fmt.Sprintf("FaultPolicy(%d)", int(p))
	}
}

// ParseFaultPolicy is String's inverse: "hold" or "drop".
func ParseFaultPolicy(s string) (FaultPolicy, error) {
	for _, p := range []FaultPolicy{HoldStranded, DropStranded} {
		if s == p.String() {
			return p, nil
		}
	}
	return 0, fmt.Errorf("runtime: -fault-policy must be hold or drop (got %q)", s)
}

// faultTransition is one pending link-state change, recorded by the
// Fail*/Recover* setters and applied by the arbiter at the next slot top.
type faultTransition struct {
	port   int
	output bool
	down   bool
}

// faultState is the engine's link-state machinery. The setters run on any
// goroutine and only write the desired state (atomics for Admit's fast
// path, a pending list for the arbiter); the switchcore fault masks are
// arbiter-domain and are only touched by applyFaults inside tick, so a
// transition takes effect at a slot boundary — never mid-schedule.
type faultState struct {
	mu      sync.Mutex
	pending []faultTransition
	gen     atomic.Uint64 // bumped on every transition; arbiter compares with applied

	inDown  []atomic.Bool
	outDown []atomic.Bool
	anyDown atomic.Bool

	applied uint64 // arbiter-only: last gen folded into the core masks
	// spare is arbiter-only: the pending list applyFaults last folded,
	// emptied, handed back to the setters at the next fold so a
	// transition reuses a backing array instead of allocating one.
	spare []faultTransition
}

func (fs *faultState) init(n int) {
	fs.inDown = make([]atomic.Bool, n)
	fs.outDown = make([]atomic.Bool, n)
}

// FailInput marks input port i's link down: its row is masked out of the
// request matrix from the next slot on and Admit from it is refused with
// ErrPortDown. Idempotent.
func (e *Engine) FailInput(i int) error { return e.setLink(i, false, true) }

// FailOutput marks output port j's link down: its column is masked out of
// the request matrix from the next slot on and Admit toward it is refused
// with ErrPortDown. Idempotent.
func (e *Engine) FailOutput(j int) error { return e.setLink(j, true, true) }

// RecoverInput restores input port i's link. Held frames (HoldStranded)
// are advertised again on the very next slot. Idempotent.
func (e *Engine) RecoverInput(i int) error { return e.setLink(i, false, false) }

// RecoverOutput restores output port j's link. Idempotent.
func (e *Engine) RecoverOutput(j int) error { return e.setLink(j, true, false) }

// FailPort fails both directions of a port — the "client unplugged"
// shape cmd/lcfd uses when a connection drops.
func (e *Engine) FailPort(port int) error {
	if err := e.FailInput(port); err != nil {
		return err
	}
	return e.FailOutput(port)
}

// Recover restores both directions of a port.
func (e *Engine) Recover(port int) error {
	if err := e.RecoverInput(port); err != nil {
		return err
	}
	return e.RecoverOutput(port)
}

// LinkDown reports the desired link state of a port (true means failed).
// "Desired" because a transition requested mid-slot is folded into the
// scheduler's view at the next slot boundary.
func (e *Engine) LinkDown(port int) (input, output bool) {
	if port < 0 || port >= e.n {
		return false, false
	}
	return e.fault.inDown[port].Load(), e.fault.outDown[port].Load()
}

func (e *Engine) setLink(port int, output, down bool) error {
	if port < 0 || port >= e.n {
		return fmt.Errorf("%w: port %d (n=%d)", ErrBadPort, port, e.n)
	}
	fs := &e.fault
	fs.mu.Lock()
	defer fs.mu.Unlock()
	flags := fs.inDown
	if output {
		flags = fs.outDown
	}
	if flags[port].Load() == down {
		return nil // already in the desired state: no transition, no event
	}
	flags[port].Store(down)
	any := false
	for p := 0; p < e.n && !any; p++ {
		any = fs.inDown[p].Load() || fs.outDown[p].Load()
	}
	fs.anyDown.Store(any)
	fs.pending = append(fs.pending, faultTransition{port: port, output: output, down: down})
	fs.gen.Add(1)
	e.wakeArbiter()
	return nil
}

// applyFaults folds pending link transitions into the switchcore fault
// masks and emits one fault trace event per transition. Arbiter-only,
// called at the top of every tick; costs one atomic load per slot when
// nothing changed.
func (e *Engine) applyFaults(now int64) {
	fs := &e.fault
	if fs.gen.Load() == fs.applied {
		return
	}
	fs.mu.Lock()
	gen := fs.gen.Load()
	pending := fs.pending
	fs.pending = fs.spare[:0]
	fs.mu.Unlock()
	for _, tr := range pending {
		dir := obs.DirInput
		if tr.output {
			e.dp.SetOutputDown(tr.port, tr.down)
			dir = obs.DirOutput
		} else {
			e.dp.SetInputDown(tr.port, tr.down)
		}
		e.cfg.Tracer.EmitFault(now, tr.port, dir, !tr.down)
	}
	fs.spare = pending
	fs.applied = gen
}

// sweepStranded disposes of frames queued behind failed links, per the
// configured FaultPolicy: DropStranded flushes and counts them,
// HoldStranded only refreshes the Stranded gauge. Arbiter-only, called
// every tick right after applyFaults; free when no link is down.
func (e *Engine) sweepStranded() {
	if !e.dp.AnyLinkDown() {
		if e.met.Stranded.Value() != 0 {
			e.met.Stranded.Set(0)
		}
		return
	}
	drop := e.cfg.FaultPolicy == DropStranded
	// Without the class tier the flush hook is Config.OnDropped itself,
	// so the classless flush path is untouched.
	hook := e.cfg.OnDropped
	if e.classes != nil {
		hook = e.classes.dropHook
	}
	dropped, stranded := 0, 0
	for i := 0; i < e.n; i++ {
		di := 0 // frames flushed from input i this sweep
		mu := &e.inMu[i]
		mu.Lock()
		if e.dp.InputDown(i) {
			if drop {
				row := e.dp.OccupiedRow(i)
				for j := row.FirstSet(); j >= 0; j = row.NextSet(j + 1) {
					di += e.flushVOQ(i, j, hook)
				}
			} else {
				stranded += e.dp.InputBacklog(i)
			}
		} else {
			for j := 0; j < e.n; j++ {
				if !e.dp.OutputDown(j) || !e.dp.HasBacklog(i, j) {
					continue
				}
				if drop {
					di += e.flushVOQ(i, j, hook)
				} else {
					stranded += e.dp.Len(i, j)
				}
			}
		}
		// The class tier's PIFOs strand and flush exactly like the VOQs
		// behind them (no-op when the tier is off or input i's PIFO row
		// is empty).
		if e.classes != nil && e.classes.pending[i].Value() > 0 {
			cd, cs := e.classSweepInput(i, drop)
			di += cd
			stranded += cs
		}
		mu.Unlock()
		if di > 0 {
			e.met.PerInputBacklog[i].Add(int64(-di))
			dropped += di
		}
	}
	if dropped > 0 {
		e.met.DroppedFault.Add(int64(dropped))
		e.met.Backlog.Add(int64(-dropped))
	}
	e.met.Stranded.Set(int64(stranded))
}

// flushVOQ empties VOQ (i, j) through hook and takes it out of the depth
// census; the count FlushVOQ returns is the length the VOQ had. Caller
// holds inMu[i].
func (e *Engine) flushVOQ(i, j int, hook func(Frame)) int {
	k := e.dp.FlushVOQ(i, j, hook)
	e.depth.move(i, k, 0)
	return k
}
