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
	"encoding/json"
	"flag"
	"fmt"
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
	var (
		m          = flag.Int("m", 4, "middle-stage switches")
		k          = flag.Int("k", 4, "external ports per ingress/egress switch")
		r          = flag.Int("r", 4, "ingress (= egress) switches")
		schedName  = flag.String("sched", "lcf_central_rr", "scheduler for every switch engine (see lcfsim for the list)")
		iterations = flag.Int("iterations", 4, "iterations for the iterative schedulers")
		seed       = flag.Uint64("seed", 1, "base seed; every engine derives its own via closfabric.SchedulerSeed")
		slot       = flag.Duration("slot", 200*time.Microsecond, "fabric slot period")
		slots      = flag.Int64("slots", 0, "stop after this many slots (0 runs until SIGINT/SIGTERM)")
		voqCap     = flag.Int("voqcap", 256, "per-VOQ capacity in every engine")
		outCap     = flag.Int("outcap", 256, "per-output delivery buffer in every engine")
		selName    = flag.String("select", "backlog", "middle-stage routing: rr (round-robin) or backlog (least-backlogged)")
		faultPol   = flag.String("fault-policy", "hold", "disposition of frames stranded in a failed middle switch: hold or drop")
		load       = flag.Float64("load", 0.7, "per-external-port Bernoulli offered load of the built-in generator (0 disables)")
		httpAddr   = flag.String("http", "127.0.0.1:9427", "HTTP address for metrics and fault injection (empty disables)")
		traceRing  = flag.Int("trace-ring", 1024, "per-engine slot-event trace ring capacity (0 removes tracing)")
		traceOn    = flag.Bool("trace", false, "start with slot-event tracing enabled")
	)
	flag.Parse()

	sel, err := cf.ParseMiddleSelect(*selName)
	if err != nil {
		fatalUsage("%v", err)
	}
	var policy rt.FaultPolicy
	switch *faultPol {
	case "hold":
		policy = rt.HoldStranded
	case "drop":
		policy = rt.DropStranded
	default:
		fatalUsage("-fault-policy must be hold or drop (got %q)", *faultPol)
	}
	if *slot <= 0 {
		fatalUsage("-slot must be positive (got %v)", *slot)
	}
	if *load < 0 || *load > 1 {
		fatalUsage("-load must be in [0,1] (got %g)", *load)
	}

	d, err := newDaemon(cf.Config{
		M: *m, K: *k, R: *r,
		Scheduler:  *schedName,
		Iterations: *iterations,
		Seed:       *seed,
		VOQCap:     *voqCap,
		OutCap:     *outCap,
		Policy:     policy,
		Select:     sel,
	}, *load, *traceRing, *traceOn)
	if err != nil {
		fatal("%v", err)
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

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	fmt.Printf("lcffab: C(%d,%d,%d) — %d switches, %d external ports, %s/%s, slot %v",
		*m, *k, *r, *m+2**r, d.fab.N(), *schedName, sel, *slot)
	if *httpAddr != "" {
		fmt.Printf(", metrics on http://%s/metrics", *httpAddr)
	}
	fmt.Println()

	if err := d.run(*slot, *slots, stop); err != nil {
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

	tracerAt  map[enginePos]*obs.Tracer // empty map when -trace-ring 0
	positions []enginePos               // stable trace/report order
}

func newDaemon(cfg cf.Config, load float64, traceRing int, traceOn bool) (*daemon, error) {
	d := &daemon{
		cfg:      cfg,
		load:     load,
		gen:      rng.NewPCG32(cfg.Seed, 0x10AD),
		ops:      make(chan faultOp, 16),
		started:  time.Now(),
		tracerAt: make(map[enginePos]*obs.Tracer),
	}
	if traceRing > 0 {
		cfg.TracerFor = func(stage uint8, idx, ports int) *obs.Tracer {
			tr := obs.NewTracer(ports, traceRing)
			tr.SetEnabled(traceOn)
			d.tracerAt[enginePos{stage, idx}] = tr
			d.positions = append(d.positions, enginePos{stage, idx})
			return tr
		}
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

// run paces step on the slot ticker until the slot budget or a signal
// stops it. A conservation violation aborts the daemon — a fabric that
// lost track of a frame has no business staying up.
func (d *daemon) run(period time.Duration, maxSlots int64, stop <-chan os.Signal) error {
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			fmt.Println("lcffab: shutting down")
			return nil
		case <-ticker.C:
			if err := d.step(); err != nil {
				return err
			}
			if maxSlots > 0 && d.fab.Slot() >= maxSlots {
				return nil
			}
		}
	}
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
		Scheduler: d.cfg.Scheduler, Select: d.cfg.Select.String(), Policy: d.cfg.Policy.String(),
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
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	switch obs.NegotiateMetricsFormat(r) {
	case obs.FormatPrometheus:
		w.Header().Set("Content-Type", obs.ContentTypePrometheus)
		if r.Method == http.MethodHead {
			return
		}
		if err := d.registry.WritePrometheus(w); err != nil {
			return
		}
	default:
		w.Header().Set("Content-Type", "application/json")
		if r.Method == http.MethodHead {
			return
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(d.snapshot())
	}
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
	if len(d.tracerAt) == 0 {
		http.Error(w, "tracing not built: restart with -trace-ring > 0", http.StatusNotFound)
		return
	}
	switch r.Method {
	case http.MethodGet:
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for _, pos := range d.positions {
			for _, ev := range d.tracerAt[pos].Drain() {
				if err := enc.Encode(stageEvent{Stage: cf.StageName(pos.stage), Index: pos.idx, Event: ev}); err != nil {
					return
				}
			}
		}
	case http.MethodPost:
		enabled, err := strconv.ParseBool(r.URL.Query().Get("enabled"))
		if err != nil {
			http.Error(w, "POST /trace needs ?enabled=true or ?enabled=false", http.StatusBadRequest)
			return
		}
		for _, tr := range d.tracerAt {
			tr.SetEnabled(enabled)
		}
		fmt.Fprintf(w, "tracing enabled=%v on %d engines\n", enabled, len(d.tracerAt))
	default:
		w.Header().Set("Allow", "GET, POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lcffab: "+format+"\n", args...)
	os.Exit(1)
}

func fatalUsage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lcffab: "+format+"\n", args...)
	os.Exit(2)
}
