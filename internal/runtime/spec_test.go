package runtime

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/sched/registry"
	"repro/internal/switchcore"
)

// TestSpecBuild is the one table of Build's name resolution and of every
// cross-field rule a Spec can break, each with the message a daemon
// prints for it.
func TestSpecBuild(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spec  Spec
		want  string // substring of the error; "" builds
		sched string // the scheduler Build resolves; "" for none
	}{
		{"default scheduler", Spec{N: 4}, "", DefaultScheduler},
		{"named scheduler", Spec{N: 4, Scheduler: "pim", Seed: 3}, "", "pim"},
		{"unknown scheduler", Spec{N: 4, Scheduler: "nope"}, `unknown scheduler "nope"`, ""},
		{"cicq builds no scheduler", Spec{N: 4, Datapath: switchcore.DatapathCICQ, Scheduler: "nope"}, "", ""},
		{"classes parse", Spec{N: 4, Classes: "rt:0:4:16,bulk:2:1", Rank: "deadline"}, "", DefaultScheduler},
		{"bad classes", Spec{N: 4, Classes: "rt:x"}, "-classes:", ""},
		{"negative iterations", Spec{N: 4, Iterations: -1}, "-iterations must be >= 0", ""},
		{"no ports", Spec{}, "port count 0", ""},
		{"unknown datapath", Spec{N: 4, Datapath: "bogus"}, "-datapath must be one of cicq, voq", ""},
		{"xpcap without cicq", Spec{N: 4, XPCap: 4}, "-xpcap requires -datapath cicq", ""},
		{"xpcap on cicq", Spec{N: 4, Datapath: switchcore.DatapathCICQ, XPCap: 4}, "", ""},
		{"negative xpcap", Spec{N: 4, Datapath: switchcore.DatapathCICQ, XPCap: -1}, "negative crosspoint capacity", ""},
		{"negative voqcap", Spec{N: 4, VOQCap: -1}, "negative capacity", ""},
		{"unknown fault policy", Spec{N: 4, FaultPolicy: 7}, "unknown fault policy", ""},
		{"negative flows", Spec{N: 4, Flows: -1}, "negative flow capacity", ""},
		{"flow policy without flows", Spec{N: 4, FlowPolicy: "po2"}, "-flow-policy requires -flows", ""},
		{"unknown flow policy", Spec{N: 4, Flows: 8, FlowPolicy: "nope"}, "nope", ""},
		{"rank without classes", Spec{N: 4, Rank: "deadline"}, "-rank requires -classes", ""},
		{"unknown rank", Spec{N: 4, Classes: "a:0", Rank: "nope"}, "nope", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := tc.spec.Build()
			if tc.want != "" {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("Build(%+v) = %v, want an error containing %q", tc.spec, err, tc.want)
				}
				return
			}
			if err != nil {
				t.Fatalf("Build(%+v): %v", tc.spec, err)
			}
			switch {
			case tc.sched == "" && c.Scheduler != nil:
				t.Fatalf("built scheduler %s, want none", c.Scheduler.Name())
			case tc.sched != "" && (c.Scheduler == nil || c.Scheduler.Name() != tc.sched):
				t.Fatalf("built scheduler %v, want %s", c.Scheduler, tc.sched)
			}
			if _, err := New(c); err != nil {
				t.Fatalf("New refused what Build accepted: %v", err)
			}
		})
	}

	// Iterations 0 means the schedulers' default of 4: the same scheduler,
	// seeded alike, whichever way a spec says it.
	for _, name := range []string{"pim", "islip", "lcf_dist_rr"} {
		var built [2]sched.Scheduler
		for k, it := range []int{0, 4} {
			c, err := Spec{N: 8, Scheduler: name, Iterations: it, Seed: 5}.Build()
			if err != nil {
				t.Fatal(err)
			}
			built[k] = c.Scheduler
		}
		if !reflect.DeepEqual(built[0], built[1]) {
			t.Errorf("%s: Iterations 0 and 4 built different schedulers", name)
		}
		ref, _ := registry.New(name, 8, sched.Options{Iterations: 4, Seed: 5})
		if !reflect.DeepEqual(built[0], ref) {
			t.Errorf("%s: Build differs from registry.New with the same options", name)
		}
	}
	if _, err := ParseFaultPolicy("bogus"); err == nil || !strings.Contains(err.Error(), "-fault-policy must be hold or drop") {
		t.Errorf("ParseFaultPolicy(bogus) = %v", err)
	}
	for _, p := range []FaultPolicy{HoldStranded, DropStranded} {
		if got, err := ParseFaultPolicy(p.String()); err != nil || got != p {
			t.Errorf("ParseFaultPolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
}

// callerOwned are the Config settings a Spec leaves to its caller: the
// clock and the hooks, which are not engine settings.
var callerOwned = map[string]bool{"SlotPeriod": true, "Tracer": true, "OnSlot": true, "OnDropped": true}

// TestSpecCoversConfig fails when Config grows a field that Build does not
// fill and no caller owns, so a setting cannot be added to the engine
// without a Spec spelling for it. A field counts as filled when a Spec
// with every field set builds it non-zero on either datapath.
func TestSpecCoversConfig(t *testing.T) {
	full := Spec{
		N: 4, Scheduler: "pim", Iterations: 2, Seed: 9,
		VOQCap: 8, OutCap: 8, FaultPolicy: DropStranded,
		Flows: 16, FlowPolicy: "po2", FlowShards: 2, FlowSeed: 5,
		Classes: "rt:0:4:16,bulk:2:1", Rank: "wfq",
	}
	cicq := full
	cicq.Datapath, cicq.XPCap = switchcore.DatapathCICQ, 3
	var built []reflect.Value
	for _, s := range []Spec{full, cicq} {
		c, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		built = append(built, reflect.ValueOf(c))
	}
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		filled := !built[0].Field(i).IsZero() || !built[1].Field(i).IsZero()
		switch {
		case callerOwned[name] && filled:
			t.Errorf("Config.%s is caller-owned, yet Build fills it", name)
		case !callerOwned[name] && !filled:
			t.Errorf("Config.%s is neither filled by Spec.Build nor caller-owned", name)
		}
	}
}
