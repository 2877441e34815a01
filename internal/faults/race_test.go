//go:build race

package faults

// raceEnabled reports a race-detector build: sync.Pool then drops a
// fraction of Puts on purpose, so the bounded-allocation test for warm
// sweeps cannot hold and is skipped.
const raceEnabled = true
