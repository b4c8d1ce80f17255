package main

import "testing"

func TestParseLine(t *testing.T) {
	r, ok := parseLine("BenchmarkEngineSlotLCFRRN256-8  1000  123456 ns/op  0 B/op  0 allocs/op")
	if !ok {
		t.Fatal("line did not parse")
	}
	if r.Name != "BenchmarkEngineSlotLCFRRN256" || r.GoMaxProcs != 8 {
		t.Fatalf("name=%q gomaxprocs=%d", r.Name, r.GoMaxProcs)
	}
	if r.Iterations != 1000 || r.NsPerOp != 123456 || *r.BytesPerOp != 0 || *r.AllocsPerOp != 0 {
		t.Fatalf("parsed %+v", r)
	}

	// GOMAXPROCS=1 runs carry no suffix; the field stays zero (omitted in
	// the JSON) and a trailing -word that is not a number is part of the
	// name, not a parallelism marker.
	r, ok = parseLine("BenchmarkFoo  52  9.5 ns/op")
	if !ok || r.Name != "BenchmarkFoo" || r.GoMaxProcs != 0 || r.NsPerOp != 9.5 {
		t.Fatalf("parsed %+v ok=%v", r, ok)
	}
	r, ok = parseLine("BenchmarkFoo/sub-case  52  9.5 ns/op")
	if !ok || r.Name != "BenchmarkFoo/sub-case" || r.GoMaxProcs != 0 {
		t.Fatalf("parsed %+v ok=%v", r, ok)
	}

	if _, ok := parseLine("Benchmark nonsense line"); ok {
		t.Fatal("garbage parsed")
	}
}

func TestCollapseMin(t *testing.T) {
	in := []Result{
		{Name: "A", NsPerOp: 10},
		{Name: "B", NsPerOp: 5},
		{Name: "A", NsPerOp: 7},
		{Name: "A", NsPerOp: 12},
	}
	out := collapseMin(in)
	if len(out) != 2 || out[0].Name != "A" || out[0].NsPerOp != 7 || out[1].Name != "B" {
		t.Fatalf("collapsed to %+v", out)
	}
}
