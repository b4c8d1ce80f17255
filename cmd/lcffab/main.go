// Command lcffab runs a live three-stage Clos fabric: m·r·r switch
// engines (internal/closfabric) driven on one shared slot clock, with a
// built-in uniform load generator and an HTTP control surface.
//
// Unlike cmd/lcfd — one switch, TCP data plane — lcffab's data plane is
// synthetic: the generator offers Bernoulli traffic at -load across the
// k·r external ports, and the interesting surface is operational: watch
// per-stage metrics, kill and revive whole middle-stage switches at
// runtime, and observe rerouting, backpressure and (under -fault-policy
// hold) zero-loss degradation, with fabric-wide conservation audited
// every slot.
//
// Observability (see OBSERVABILITY.md for the complete reference):
//
//   - GET /metrics serves the fab_* counters — fabric totals, per-middle
//     routing and liveness, per-{stage,index} engine roll-ups — as JSON
//     by default or Prometheus text exposition 0.0.4 when the Accept
//     header asks for text/plain.
//   - GET /fabric returns the topology and per-switch summaries.
//   - GET /fault lists middle-switch liveness; POST /fault?middle=2&state=down
//     kills middle switch 2 at the next slot boundary (state=up revives).
//   - GET /trace drains every engine's slot-event ring as JSONL, each
//     line tagged with the engine's stage and index.
//
// Usage:
//
//	lcffab                                   # C(4,4,4): 16 ports, 12 switches
//	lcffab -m 8 -k 8 -r 8 -sched islip -select backlog
//	curl -X POST 'localhost:9427/fault?middle=0&state=down'
//	curl localhost:9427/metrics | jq .injected
//	curl -H 'Accept: text/plain' localhost:9427/metrics   # Prometheus
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	cf "repro/internal/closfabric"
	"repro/internal/obs"
	"repro/internal/rng"
	rt "repro/internal/runtime"
)

func main() {
	// The engine flags write into the spec every switch engine is built
	// from; the rest belong to the fabric and the daemon.
	var spec rt.Spec
	flag.StringVar(&spec.Scheduler, "sched", rt.DefaultScheduler, "scheduler for every switch engine (see lcfsim for the list)")
	flag.IntVar(&spec.Iterations, "iterations", 4, "iterations for the iterative schedulers")
	flag.Uint64Var(&spec.Seed, "seed", 1, "base seed; every engine derives its own via closfabric.SchedulerSeed")
	flag.IntVar(&spec.VOQCap, "voqcap", 256, "per-VOQ capacity in every engine")
	flag.IntVar(&spec.OutCap, "outcap", 256, "per-output delivery buffer in every engine")
	var (
		m        = flag.Int("m", 4, "middle-stage switches")
		k        = flag.Int("k", 4, "external ports per ingress/egress switch")
		r        = flag.Int("r", 4, "ingress (= egress) switches")
		slot     = flag.Duration("slot", 200*time.Microsecond, "fabric slot period")
		slots    = flag.Int64("slots", 0, "stop after this many slots (0 runs until SIGINT/SIGTERM)")
		selName  = flag.String("select", cf.SelectRoundRobin.String(), "middle-stage routing: rr (round-robin) or backlog (least-backlogged)")
		faultPol = flag.String("fault-policy", "hold", "disposition of frames stranded in a failed middle switch: hold or drop")
		load     = flag.Float64("load", 0.7, "per-external-port Bernoulli offered load of the built-in generator (0 disables)")
		httpAddr = flag.String("http", "127.0.0.1:9427", "HTTP address for metrics and fault injection (empty disables)")
		traceOn  = flag.Bool("trace", false, "start with slot-event tracing enabled")
	)
	flag.Parse()

	sel, err := cf.ParseMiddleSelect(*selName)
	if err != nil {
		fatalUsage("-select: %v", err)
	}
	if spec.FaultPolicy, err = rt.ParseFaultPolicy(*faultPol); err != nil {
		fatalUsage("%v", err)
	}
	if *slot <= 0 {
		fatalUsage("-slot must be positive (got %v)", *slot)
	}
	if *load < 0 || *load > 1 {
		fatalUsage("-load must be in [0,1] (got %g)", *load)
	}

	// Every construction error — the spec, the topology — is a usage
	// error: nothing has run yet.
	d, err := newDaemon(cf.Config{M: *m, K: *k, R: *r, Engine: spec, Select: sel}, *load, *traceOn)
	if err != nil {
		fatalUsage("%v", err)
	}

	if *httpAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", d.handleMetrics)
		mux.HandleFunc("/fabric", d.handleFabric)
		mux.HandleFunc("/fault", d.handleFault)
		mux.HandleFunc("/trace", d.handleTrace)
		go func() {
			if err := http.ListenAndServe(*httpAddr, mux); err != nil {
				fmt.Fprintf(os.Stderr, "lcffab: http endpoint: %v\n", err)
			}
		}()
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	fmt.Printf("lcffab: C(%d,%d,%d) — %d switches, %d external ports, %s/%s, slot %v",
		*m, *k, *r, *m+2**r, d.fab.N(), d.fab.Engine(cf.StageIngress, 0).SchedulerName(), sel, *slot)
	if *httpAddr != "" {
		fmt.Printf(", metrics on http://%s/metrics", *httpAddr)
	}
	fmt.Println()

	if err := d.run(*slot, *slots, ctx.Done()); err != nil {
		fatal("%v", err)
	}
	st := d.fab.Stats()
	fmt.Printf("lcffab: done after %d slots: injected %d, delivered %d, dropped %d, resident %d\n",
		d.fab.Slot(), st.Injected.Value(), st.Delivered.Value(), st.Dropped.Value(), d.fab.Resident())
}

// faultOp is one middle-switch transition requested over HTTP, marshalled
// onto the tick goroutine (the fabric's mutating methods are lockstep).
type faultOp struct {
	middle int
	down   bool
	done   chan error
}

// enginePos names one engine's position for trace tagging.
type enginePos struct {
	stage uint8
	idx   int
}

// traceRing is the capacity of every engine's slot-event ring in events.
const traceRing = 1024

// daemon owns the fabric, its registry and the tick loop plumbing.
type daemon struct {
	fab      *cf.Fabric
	registry *obs.Registry
	cfg      cf.Config
	load     float64
	gen      *rng.PCG32
	seq      uint64
	ops      chan faultOp
	started  time.Time
	clock    rt.ClockStats // run's slot clock counts into it

	// Every engine's ring, in build order (the order GET /trace drains
	// them), and the position of the engine that owns each.
	tracers   []*obs.Tracer
	positions []enginePos
}

func newDaemon(cfg cf.Config, load float64, traceOn bool) (*daemon, error) {
	d := &daemon{
		cfg:     cfg,
		load:    load,
		gen:     rng.NewPCG32(cfg.Engine.Seed, 0x10AD),
		ops:     make(chan faultOp, 16),
		started: time.Now(),
	}
	cfg.TracerFor = func(stage uint8, idx, ports int) *obs.Tracer {
		tr := obs.NewTracer(ports, traceRing)
		tr.SetEnabled(traceOn)
		d.tracers = append(d.tracers, tr)
		d.positions = append(d.positions, enginePos{stage, idx})
		return tr
	}
	fab, err := cf.New(cfg)
	if err != nil {
		return nil, err
	}
	d.fab = fab
	d.registry = d.buildRegistry()
	return d, nil
}

func (d *daemon) buildRegistry() *obs.Registry {
	r := obs.NewRegistry()
	d.fab.Register(r)
	d.clock.Register(r, "fab")
	r.Gauge("fab_uptime_seconds", "Seconds since the fabric daemon started.", func() float64 {
		return time.Since(d.started).Seconds()
	})
	return r
}

// step advances the fabric one slot: apply queued fault ops, offer
// generated load, tick. This is the whole data plane.
func (d *daemon) step() error {
	for {
		select {
		case op := <-d.ops:
			var err error
			if op.down {
				err = d.fab.FailMiddle(op.middle)
			} else {
				err = d.fab.RecoverMiddle(op.middle)
			}
			op.done <- err
			continue
		default:
		}
		break
	}
	n := d.fab.N()
	for p := 0; p < n; p++ {
		if d.load <= 0 || !d.gen.Bool(d.load) {
			continue
		}
		d.seq++
		// Backpressure and dead paths are the fabric telling the
		// generator to back off; both are counted, neither is fatal.
		_ = d.fab.Admit(p, d.gen.Intn(n), d.seq, uint64(time.Now().UnixNano()))
	}
	return d.fab.Tick()
}

// run paces step on the runtime's slot clock until the slot budget or a
// closed stop ends it. A conservation violation aborts the daemon — a
// fabric that lost track of a frame has no business staying up.
func (d *daemon) run(period time.Duration, maxSlots int64, stop <-chan struct{}) error {
	clk := rt.NewSlotClock(period, &d.clock)
	for clk.Wait(stop) {
		if err := d.step(); err != nil {
			return err
		}
		if maxSlots > 0 && d.fab.Slot() >= maxSlots {
			return nil
		}
		clk.Advance(false)
	}
	fmt.Println("lcffab: shutting down")
	return nil
}

// snapshot is the JSON document of GET /metrics.
type snapshot struct {
	Slot          int64  `json:"slot"`
	M             int    `json:"m"`
	K             int    `json:"k"`
	R             int    `json:"r"`
	N             int    `json:"n"`
	Scheduler     string `json:"scheduler"`
	Select        string `json:"select"`
	Policy        string `json:"policy"`
	Injected      int64  `json:"injected"`
	Delivered     int64  `json:"delivered"`
	Dropped       int64  `json:"dropped"`
	Rejected      int64  `json:"rejected"`
	Backpressured int64  `json:"backpressured"`
	LinkNacks     int64  `json:"link_nacks"`
	Resident      int64  `json:"resident"`
	MiddleLive    []bool `json:"middle_live"`
}

func (d *daemon) snapshot() snapshot {
	st := d.fab.Stats()
	m, k, r := d.fab.Dims()
	s := snapshot{
		Slot: d.fab.Slot(), M: m, K: k, R: r, N: d.fab.N(),
		Scheduler: d.fab.Engine(cf.StageIngress, 0).SchedulerName(), Select: d.cfg.Select.String(), Policy: d.cfg.Engine.FaultPolicy.String(),
		Injected:      st.Injected.Value(),
		Delivered:     st.Delivered.Value(),
		Dropped:       st.Dropped.Value(),
		Rejected:      st.Rejected.Value(),
		Backpressured: st.Backpressured.Value(),
		LinkNacks:     st.LinkNacks.Value(),
		Resident:      st.Injected.Value() - st.Delivered.Value() - st.Dropped.Value(),
		MiddleLive:    make([]bool, m),
	}
	for c := 0; c < m; c++ {
		s.MiddleLive[c] = st.MiddleLive[c].Value() == 1
	}
	return s
}

func (d *daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	obs.ServeMetrics(w, r, d.registry, func() any { return d.snapshot() })
}

// stageSummary is one switch engine's row in GET /fabric.
type stageSummary struct {
	Stage     string `json:"stage"`
	Index     int    `json:"index"`
	Slots     int64  `json:"slots"`
	Admitted  int64  `json:"admitted"`
	Delivered int64  `json:"delivered"`
	Backlog   int64  `json:"backlog"`
	Stranded  int64  `json:"stranded"`
	Dropped   int64  `json:"dropped"`
}

func (d *daemon) handleFabric(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	m, _, rr := d.fab.Dims()
	var rows []stageSummary
	add := func(stage uint8, count int) {
		for i := 0; i < count; i++ {
			e := d.fab.Engine(stage, i)
			st := e.Stats()
			rows = append(rows, stageSummary{
				Stage: cf.StageName(stage), Index: i,
				Slots:     e.Slot(),
				Admitted:  st.Admitted.Value(),
				Delivered: st.Delivered.Value(),
				Backlog:   st.Backlog.Value(),
				Stranded:  st.Stranded.Value(),
				Dropped:   st.DroppedFault.Value(),
			})
		}
	}
	add(cf.StageIngress, rr)
	add(cf.StageMiddle, m)
	add(cf.StageEgress, rr)
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct {
		Fabric   snapshot       `json:"fabric"`
		Switches []stageSummary `json:"switches"`
	}{d.snapshot(), rows})
}

// middleState is one middle switch's entry in the GET /fault document.
type middleState struct {
	Middle int  `json:"middle"`
	Live   bool `json:"live"`
}

// handleFault is the fabric-shaped fault-injection surface:
//
//	GET  /fault                          — liveness of every middle switch
//	POST /fault?middle=2&state=down      — kill middle switch 2 whole
//	POST /fault?middle=2&state=up        — revive it
//
// Transitions are marshalled onto the tick goroutine and take effect at
// the next slot boundary; both directions are idempotent.
func (d *daemon) handleFault(w http.ResponseWriter, r *http.Request) {
	m, _, _ := d.fab.Dims()
	writeState := func() {
		st := d.fab.Stats()
		states := make([]middleState, m)
		for c := 0; c < m; c++ {
			states[c] = middleState{Middle: c, Live: st.MiddleLive[c].Value() == 1}
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
		c, err := strconv.Atoi(q.Get("middle"))
		if err != nil || c < 0 || c >= m {
			http.Error(w, fmt.Sprintf("POST /fault needs ?middle in [0,%d)", m), http.StatusBadRequest)
			return
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
		op := faultOp{middle: c, down: down, done: make(chan error, 1)}
		select {
		case d.ops <- op:
		default:
			http.Error(w, "fault queue full, retry", http.StatusServiceUnavailable)
			return
		}
		if err := <-op.done; err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeState()
	default:
		w.Header().Set("Allow", "GET, POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// stageEvent is one trace line of GET /trace: an engine slot event tagged
// with the engine's fabric position.
type stageEvent struct {
	Stage string `json:"stage"`
	Index int    `json:"index"`
	obs.Event
}

// handleTrace drains every engine's slot-event ring as JSONL, each line
// carrying the engine's stage and index; POST ?enabled=true|false toggles
// recording on every tracer at once.
func (d *daemon) handleTrace(w http.ResponseWriter, r *http.Request) {
	obs.ServeTrace(w, r, d.writeTrace, d.tracers...)
}

func (d *daemon) writeTrace(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i, tr := range d.tracers {
		pos := d.positions[i]
		for _, ev := range tr.Drain() {
			if err := enc.Encode(stageEvent{Stage: cf.StageName(pos.stage), Index: pos.idx, Event: ev}); err != nil {
				return err
			}
		}
	}
	return nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lcffab: "+format+"\n", args...)
	os.Exit(1)
}

func fatalUsage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lcffab: "+format+"\n", args...)
	os.Exit(2)
}
