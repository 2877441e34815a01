package main

import "hash/fnv"

// config fixes the instance sizes and operation counts of every phase.
// The seed is the only input a run takes from outside; everything the
// program receives is generated from it.
type config struct {
	seed uint64

	// pipeline: mesh → audited schedule, one fresh mesh per operation.
	pipeScale  float64
	pipeK      int
	pipeM      int
	qualityOps int // ops whose schedules define makespan_ratio, c1_edges, c2_rounds

	// solve and procs: one small mesh, transport on every executor.
	solveScale float64
	solveK     int
	solveM     int
	solveBlock int // block size of the lightly communicating schedule
	solvePlans int // fault plans drawn from the seed; fault-tolerant solves cycle through them

	// service: an in-process daemon on loopback.
	svcScale float64
	svcK     int
	svcM     int
	svcCache int64 // daemon cache budget, below the mix's working set
	svcHot   int   // hot meshes; each carries two hot schedules

	setupReps int // set-ups per run; setup_s is their median
}

// mkConfig returns the benchmark's configuration for a seed.
func mkConfig(seed uint64) config {
	return config{
		seed:       seed,
		pipeScale:  0.1,
		pipeK:      24,
		pipeM:      32,
		qualityOps: 48,
		solveScale: 0.02,
		solveK:     8,
		solveM:     2,
		solveBlock: 64,
		solvePlans: 8,
		svcScale:   0.05,
		svcK:       24,
		svcM:       32,
		svcCache:   9 << 20,
		svcHot:     3,
		setupReps:  3,
	}
}

// derive draws an independent sub-seed for the purpose named by tag and
// index i: FNV-1a of the tag, mixed with the run seed and i by splitmix64.
func derive(seed uint64, tag string, i int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(tag))
	return splitmix(splitmix(seed^h.Sum64()) + uint64(i))
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
