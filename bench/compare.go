package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// Verdicts of one metric × workload row.
const (
	verdictGain       = "gain"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictUnchanged  = "unchanged"
	verdictSame       = "same"    // exact metric, equal in every pair
	verdictChanged    = "changed" // exact metric, differs in some pair
)

// rule is how one metric is judged: its direction, its bound (0 for
// per-layer metrics, which have none) and whether it must repeat
// exactly.
type rule struct {
	unit, better string
	bound        float64
	exact        bool
}

func ruleFor(metric, workload string) (rule, bool) {
	for _, m := range endToEndSpecs {
		if m.Name == metric {
			exact := exactEndToEnd[metric] && !strings.HasPrefix(workload, "wire_")
			return rule{m.Unit, m.Better, m.Bound, exact}, true
		}
	}
	for _, m := range perLayerSpecs {
		if m.Name == metric {
			return rule{m.Unit, m.Better, 0, m.Exact}, true
		}
	}
	return rule{}, false
}

// row is the comparison of one metric on one workload over all pairs.
type row struct {
	workload, metric string
	rule             rule
	parent, change   []float64 // one value per pair
	wins, losses     int
	verdict          string
}

// better reports whether a is better than b for the rule's direction.
func (r rule) isBetter(a, b float64) bool {
	if r.better == higher {
		return a > b
	}
	return a < b
}

// judge applies the choosing-metrics rule to one row:
//
//   - an exact metric is compared for equality pair by pair;
//   - a regression is a change median worse than the parent's by more
//     than the metric's bound;
//   - a gain needs the change to win at least nine tenths of the pairs
//     (ties count for neither side) and the medians to differ by more
//     than the parent's own interquartile range;
//   - where either side's spread exceeds the bound the row is
//     unresolved, not unchanged, unless every change run beats every
//     parent run.
func (r *row) judge() {
	for k := range r.parent {
		switch {
		case r.rule.isBetter(r.change[k], r.parent[k]):
			r.wins++
		case r.rule.isBetter(r.parent[k], r.change[k]):
			r.losses++
		}
	}
	pq1, pmed, pq3 := quartiles(r.parent)
	cq1, cmed, cq3 := quartiles(r.change)
	worseBy := 0.0 // share of the parent's median the change is worse by
	if pmed != 0 {
		worseBy = (cmed - pmed) / math.Abs(pmed)
		if r.rule.better == higher {
			worseBy = -worseBy
		}
	}
	regressed := r.rule.bound > 0 && worseBy > r.rule.bound
	if r.rule.exact {
		r.verdict = verdictSame
		if r.wins+r.losses > 0 {
			r.verdict = verdictChanged
		}
		if regressed {
			r.verdict = verdictRegression
		}
		return
	}
	pairs := len(r.parent)
	gain := float64(r.wins) >= 0.9*float64(pairs) && r.rule.isBetter(cmed, pmed) &&
		math.Abs(cmed-pmed) > pq3-pq1
	allBetter := true
	for _, c := range r.change {
		for _, p := range r.parent {
			if !r.rule.isBetter(c, p) {
				allBetter = false
			}
		}
	}
	spread := func(q1, med, q3 float64) float64 {
		if med == 0 {
			return 0
		}
		return (q3 - q1) / math.Abs(med)
	}
	noisy := r.rule.bound > 0 && math.Max(spread(pq1, pmed, pq3), spread(cq1, cmed, cq3)) > r.rule.bound
	switch {
	case regressed:
		r.verdict = verdictRegression
	case gain:
		r.verdict = verdictGain
	case noisy && !allBetter:
		r.verdict = verdictUnresolved
	default:
		r.verdict = verdictUnchanged
	}
}

// readRecords reads the records of one -o file (one JSON object per
// line).
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Workload == "" {
			return nil, fmt.Errorf("%s: a record without a workload (write the files with -o)", path)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// compareRecords builds and judges the rows of the given pairs. A pair
// is the records of one parent file and one change file; a metric of a
// workload enters a pair's row when both sides have it. A run that
// failed its own correctness check counts as a regression of ok_share
// through its recorded value, and is also listed.
func compareRecords(pairs [][2][]record) []*row {
	rows := map[string]*row{}
	key := func(r record, metric string) string {
		return fmt.Sprintf("%s\x00%d\x00%s", r.Workload, r.Trace, metric)
	}
	for _, pair := range pairs {
		for _, p := range pair[0] {
			for _, c := range pair[1] {
				if c.Workload != p.Workload || c.Trace != p.Trace {
					continue
				}
				for name, pv := range p.Metrics {
					cv, ok := c.Metrics[name]
					rl, known := ruleFor(name, p.Workload)
					if !ok || !known {
						continue
					}
					k := key(p, name)
					if rows[k] == nil {
						rows[k] = &row{workload: p.Workload, metric: name, rule: rl}
					}
					rows[k].parent = append(rows[k].parent, pv.Value)
					rows[k].change = append(rows[k].change, cv.Value)
				}
			}
		}
	}
	out := make([]*row, 0, len(rows))
	for _, r := range rows {
		r.judge()
		out = append(out, r)
	}
	order := map[string]int{}
	for i, w := range workloadSpecs {
		order[w.Name] = i
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].workload != out[b].workload {
			return order[out[a].workload] < order[out[b].workload]
		}
		return out[a].metric < out[b].metric
	})
	return out
}

// compareFiles is -compare: parent.json change.json [more pairs…]. It
// prints one row per metric × workload and reports whether any row
// regressed.
func compareFiles(w io.Writer, paths []string) (regressed bool, err error) {
	if len(paths) == 0 || len(paths)%2 != 0 {
		return false, fmt.Errorf("-compare wants pairs of files: parent.json change.json [more pairs…]")
	}
	var pairs [][2][]record
	for k := 0; k < len(paths); k += 2 {
		p, err := readRecords(paths[k])
		if err != nil {
			return false, err
		}
		c, err := readRecords(paths[k+1])
		if err != nil {
			return false, err
		}
		pairs = append(pairs, [2][]record{p, c})
	}
	rows := compareRecords(pairs)
	if len(rows) == 0 {
		return false, fmt.Errorf("the files share no workload and metric")
	}
	fmt.Fprintf(w, "%-17s %-28s %-6s %36s %36s %7s  %s\n",
		"workload", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, r := range rows {
		pq1, pmed, pq3 := quartiles(r.parent)
		cq1, cmed, cq3 := quartiles(r.change)
		fmt.Fprintf(w, "%-17s %-28s %-6s %36s %36s %3d/%-3d  %s\n",
			r.workload, r.metric, r.rule.unit,
			fmt.Sprintf("%.6g [%.6g, %.6g]", pmed, pq1, pq3),
			fmt.Sprintf("%.6g [%.6g, %.6g]", cmed, cq1, cq3),
			r.wins, len(r.parent), r.verdict)
		if r.verdict == verdictRegression {
			regressed = true
		}
	}
	if len(pairs) < 10 {
		fmt.Fprintf(w, "note: %d pairs; a gain claim needs at least ten, alternating which side runs first\n", len(pairs))
	}
	return regressed, nil
}
