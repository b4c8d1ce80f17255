//go:build race

package runtime_test

// raceEnabled reports a -race build, whose instrumentation makes a slot
// several times slower: wall-time bounds sized for a plain build do not
// apply.
const raceEnabled = true
