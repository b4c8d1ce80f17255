package main

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"
)

// TestRunDeterministic runs the cluster twice on one seed: the whole
// report, bulk and quick channel, must come out byte for byte the same.
func TestRunDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	for _, w := range []*bytes.Buffer{&a, &b} {
		if err := run([]string{"-slots", "2000", "-seed", "1"}, w); err != nil {
			t.Fatal(err)
		}
	}
	if a.String() != b.String() {
		t.Fatalf("two runs on seed 1 differ:\n%s\n---\n%s", a.String(), b.String())
	}
	if nacks(t, a.String()) != 0 {
		t.Fatalf("clean links reported NACKs:\n%s", a.String())
	}
}

// TestRunDataCorruptionNacks corrupts 5 % of bulk data frames: the
// receivers must NACK some of them.
func TestRunDataCorruptionNacks(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-slots", "2000", "-seed", "1", "-datacorrupt", "0.05"}, &out); err != nil {
		t.Fatal(err)
	}
	if nacks(t, out.String()) == 0 {
		t.Fatalf("5%% data corruption reported no NACKs:\n%s", out.String())
	}
}

var nackLine = regexp.MustCompile(`data NACKs: +(\d+)`)

// nacks reads the bulk channel's NACK count out of a report.
func nacks(t *testing.T, report string) int {
	t.Helper()
	m := nackLine.FindStringSubmatch(report)
	if m == nil {
		t.Fatalf("no NACK line in report:\n%s", report)
	}
	n, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatal(err)
	}
	return n
}
