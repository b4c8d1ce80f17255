// Command lcftrace runs a short simulation and prints one line per slot:
// the request matrix population, the computed matching, and the packets
// moved. It is the debugging companion to lcfsim — the view of Figure 3
// extended over time.
//
// It is also the consumer of the obs slot-event ring: -drain renders a
// trace drained from a running lcfd (or saved to a file) as a
// human-readable timeline with per-grant LCF rule attribution, and -jsonl
// saves ring events as JSONL for offline analysis.
//
// Usage:
//
//	lcftrace -sched lcf_central_rr -n 4 -load 0.8 -slots 20
//	lcftrace -sched pim -matrix              # also dump the request matrix rows
//	lcftrace -jsonl trace.jsonl -slots 100   # simulate, save ring events
//	lcftrace -drain http://127.0.0.1:9417/trace   # timeline from live lcfd
//	curl -s 127.0.0.1:9417/trace | lcftrace -drain -
//	lcftrace -drain trace.jsonl              # timeline from a saved file
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"repro/internal/matching"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sched/registry"
	"repro/internal/simswitch"
	"repro/internal/traffic"
)

func main() {
	var (
		schedName = flag.String("sched", "lcf_central_rr", "scheduler name")
		n         = flag.Int("n", 4, "switch port count")
		load      = flag.Float64("load", 0.8, "offered load")
		slots     = flag.Int64("slots", 20, "slots to trace")
		seed      = flag.Uint64("seed", 1, "RNG seed")
		iters     = flag.Int("iterations", 4, "iterations for iterative schedulers")
		matrix    = flag.Bool("matrix", false, "dump the request matrix rows each slot")
		arrivals  = flag.String("arrivals", "", "replay arrivals from a trace file (format: slot input dst)")
		drain     = flag.String("drain", "", "render a slot-event trace from a URL, file, or - (stdin) instead of simulating")
		jsonlOut  = flag.String("jsonl", "", "write ring events as JSONL to this file (- for stdout)")
	)
	flag.Parse()

	if *drain != "" {
		if err := drainTrace(*drain, *jsonlOut); err != nil {
			fmt.Fprintf(os.Stderr, "lcftrace: %v\n", err)
			os.Exit(1)
		}
		return
	}

	s, err := registry.New(*schedName, *n, sched.Options{Iterations: *iters, Seed: *seed})
	if err != nil {
		fmt.Fprintf(os.Stderr, "lcftrace: %v\n", err)
		os.Exit(1)
	}
	mode := simswitch.VOQ
	if *schedName == "fifo" {
		mode = simswitch.FIFO
	}

	gen := traffic.Generator(traffic.NewBernoulli(*n, *load, traffic.NewUniform(*n), *seed))
	if *arrivals != "" {
		f, err := os.Open(*arrivals)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lcftrace: %v\n", err)
			os.Exit(1)
		}
		gen, err = traffic.ParseTrace(f, *n)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "lcftrace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace: %s, n=%d, arrivals from %s\n", *schedName, *n, *arrivals)
	} else {
		fmt.Printf("trace: %s, n=%d, load=%.2f, seed=%d\n", *schedName, *n, *load, *seed)
	}
	fmt.Printf("%-6s %-9s %-28s %s\n", "slot", "requests", "matching (in→out)", "moved")

	// With -jsonl the run also records each slot's decision into an obs
	// ring (sized to keep every slot) and saves it afterwards — the
	// offline twin of lcfd's /trace. A nil tracer records nothing.
	var tracer *obs.Tracer
	if *jsonlOut != "" {
		tracer = obs.NewTracer(*n, int(*slots)+1)
		tracer.Enable()
	}

	cfg := simswitch.Config{
		N:            *n,
		Mode:         mode,
		Scheduler:    s,
		Gen:          gen,
		WarmupSlots:  0,
		MeasureSlots: *slots,
		Validate:     true,
		Trace: func(ev simswitch.TraceEvent) {
			tracer.EmitGrants(int64(ev.Slot), ev.Requests.PopCount(), ev.Grants)
			var pairs []string
			for i, j := range ev.Match.InToOut {
				if j != matching.Unmatched {
					pairs = append(pairs, fmt.Sprintf("%d→%d", i, j))
				}
			}
			fmt.Printf("%-6d %-9d %-28s %d\n", ev.Slot, ev.Requests.PopCount(),
				strings.Join(pairs, " "), ev.Moved)
			if *matrix {
				for i := 0; i < ev.Requests.N(); i++ {
					fmt.Printf("       R[%d] %s\n", i, ev.Requests.Row(i))
				}
			}
		},
	}
	res, err := simswitch.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lcftrace: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\n%d slots: %d generated, %d forwarded, %d dropped, %d still queued; mean delay %.2f slots\n",
		*slots, res.Counters.Generated, res.Counters.Forwarded, res.Counters.DroppedPQ,
		res.StillQueued, res.Delay.Mean())

	if tracer != nil {
		if err := writeJSONL(*jsonlOut, tracer.Drain()); err != nil {
			fmt.Fprintf(os.Stderr, "lcftrace: %v\n", err)
			os.Exit(1)
		}
	}
}

// drainTrace reads ring events from src — an http(s) URL (lcfd's /trace
// endpoint), a JSONL file, or "-" for stdin — and either re-saves them as
// JSONL (jsonlOut != "") or renders the human-readable timeline.
func drainTrace(src, jsonlOut string) error {
	var r io.ReadCloser
	switch {
	case src == "-":
		r = os.Stdin
	case strings.HasPrefix(src, "http://"), strings.HasPrefix(src, "https://"):
		resp, err := http.Get(src)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
			resp.Body.Close()
			return fmt.Errorf("%s: %s: %s", src, resp.Status, strings.TrimSpace(string(body)))
		}
		r = resp.Body
	default:
		f, err := os.Open(src)
		if err != nil {
			return err
		}
		r = f
	}
	evs, err := obs.ReadJSONL(r)
	r.Close()
	if err != nil {
		return err
	}
	if jsonlOut != "" {
		return writeJSONL(jsonlOut, evs)
	}
	renderTimeline(os.Stdout, evs)
	return nil
}

func writeJSONL(dst string, evs []obs.Event) error {
	w := os.Stdout
	if dst != "-" {
		f, err := os.Create(dst)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return obs.WriteJSONL(w, evs)
}

// renderTimeline prints one line per traced slot with every grant's
// decision rule and choice count: `2→0[lcf c1]` is input 2 granted output
// 0 by the least-choice rule with one eligible output left, `0→3[diag
// c2]` came from the rotating diagonal's priority level. Schedulers
// without attribution render bare `in→out` pairs. Fault, flow and class
// events render as annotations between the slots they fall in; a kind
// this build does not know (a trace recorded by another version) is named
// rather than misread as an empty slot decision. The footer counts slot
// decisions and other events separately.
func renderTimeline(w io.Writer, evs []obs.Event) {
	fmt.Fprintf(w, "%-8s %-9s %-7s %s\n", "slot", "requests", "matched", "grants (in→out[rule choices])")
	slots := 0
	for _, ev := range evs {
		switch ev.Kind {
		case "":
			slots++
			var pairs []string
			for _, g := range ev.Grants {
				switch {
				case g.Rule == "" || g.Rule == "unattributed":
					pairs = append(pairs, fmt.Sprintf("%d→%d", g.In, g.Out))
				default:
					rule := g.Rule
					if rule == "diagonal" {
						rule = "diag"
					} else if rule == "prescheduled" {
						rule = "presched"
					}
					pairs = append(pairs, fmt.Sprintf("%d→%d[%s c%d]", g.In, g.Out, rule, g.Choices))
				}
			}
			fmt.Fprintf(w, "%-8d %-9d %-7d %s\n", ev.Slot, ev.Requested, ev.Matched, strings.Join(pairs, " "))
		case "fault":
			fmt.Fprintf(w, "%-8d fault: port %d %s link %s\n", ev.Slot, ev.Port, ev.Dir, ev.State)
		case "flow":
			if ev.Disp == "rejected" {
				fmt.Fprintf(w, "%-8d flow: %#x rejected (table full)\n", ev.Slot, ev.Flow)
			} else {
				fmt.Fprintf(w, "%-8d flow: %#x %s → port %d\n", ev.Slot, ev.Flow, ev.Disp, ev.Port)
			}
		case "class":
			fmt.Fprintf(w, "%-8d class: c%d → port %d SLO violated (latency %d slots)\n", ev.Slot, ev.Class, ev.Port, ev.Latency)
		default:
			fmt.Fprintf(w, "%-8d %s: (unrecognised event)\n", ev.Slot, ev.Kind)
		}
	}
	fmt.Fprintf(w, "%d slots drained, %d other events\n", slots, len(evs)-slots)
}
