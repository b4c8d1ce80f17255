// Package datapath maps the datapath names exposed on the CLI surface
// (`lcfd -datapath`, `lcfsim -datapath`) to constructors, the same
// name→builder role internal/sched/registry plays for schedulers:
//
//   - "voq":  the VOQ core with one central matching per slot
//     (switchcore.Core), the paper's organization.
//   - "cicq": the crosspoint-buffered variant with independent
//     per-input dispatch and per-output pull arbiters (switchcore.CICQ).
//
// The name list is pinned by a golden test exactly like the scheduler
// registry's, because these names are public API: CLI flags, engine
// configs and EXPERIMENTS.md refer to them.
package datapath

import (
	"fmt"
	"sort"

	"repro/internal/switchcore"
)

// Datapath names.
const (
	VOQ  = "voq"
	CICQ = "cicq"
)

// DefaultXPCap is the per-crosspoint buffer bound used when a config
// does not set one. Crosspoint buffers are small by design — a handful
// of frames per crosspoint is what the CICQ literature assumes — and 8
// keeps the n² rings cheap while decoupling the arbiter banks.
const DefaultXPCap = 8

// Config carries the construction parameters common to both datapaths.
type Config struct {
	// N is the port count.
	N int
	// VOQCap bounds each of the n² VOQs (0 = unbounded).
	VOQCap int
	// XPCap bounds each crosspoint buffer (CICQ only; 0 means
	// DefaultXPCap).
	XPCap int
	// Prealloc sizes every VOQ ring at full capacity up front for an
	// allocation-free admit path (requires a bounded VOQCap).
	Prealloc bool
}

// Known reports whether name is a registered datapath ("" counts as the
// default, "voq").
func Known(name string) bool {
	return name == "" || name == VOQ || name == CICQ
}

// New builds the named datapath. The error lists the known names on a
// miss so CLI typos are self-explanatory.
func New[T any](name string, cfg Config) (switchcore.Datapath[T], error) {
	switch name {
	case "", VOQ:
		return switchcore.NewPrealloc[T](cfg.N, cfg.VOQCap, cfg.Prealloc), nil
	case CICQ:
		xp := cfg.XPCap
		if xp <= 0 {
			xp = DefaultXPCap
		}
		return switchcore.NewCICQ[T](cfg.N, cfg.VOQCap, xp, cfg.Prealloc), nil
	}
	return nil, fmt.Errorf("datapath: unknown datapath %q (known: %v)", name, Names())
}

// Names returns the registered datapath names, sorted.
func Names() []string {
	names := []string{CICQ, VOQ}
	sort.Strings(names)
	return names
}
