package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"
)

// run accumulates one benchmark run: the metrics measured so far and the
// count of operations attempted and failed (errors and wrong outputs).
type run struct {
	cfg     config
	traced  bool
	workdir string    // scratch space for checkpoint shards
	out     io.Writer // the human-readable report

	m metricSet

	mu        sync.Mutex
	attempted int
	failed    int
}

func newRun(cfg config, traced bool, workdir string, out io.Writer) *run {
	return &run{cfg: cfg, traced: traced, workdir: workdir, out: out, m: metricSet{}}
}

// op records one attempted operation and, if err is non-nil, its failure.
func (r *run) op(what string, err error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
		return false
	}
	return true
}

// phase is one layer group of the benchmark. Every run sets up and runs
// every phase, so every run reports every metric. The phases' operations
// are interleaved over the whole run, so a stretch of contention from
// outside slows all of them alike; the phase a workload is named after
// gets primaryShare of the run's time and the others split the rest.
type phase interface {
	name() string
	// setup does the untimed preparation of the phase.
	setup(r *run) error
	// step runs the phase's next operation (a burst of requests for the
	// service) and records its samples.
	step(r *run)
	// ops is the number of steps taken so far.
	ops() int
	// minOps is the step count every run completes, whatever its time
	// budget: the steps that define the phase's exact counts.
	minOps(r *run) int
	// finish records the phase's metrics in r.m: end-to-end or, when
	// r.traced, per-layer.
	finish(r *run)
	// close releases what setup acquired; safe after a failed setup.
	close()
}

func newPhases() []phase {
	return []phase{&pipelinePhase{}, &solvePhase{}, &procsPhase{}, &servicePhase{}}
}

// workloads names the phases a run can give its primary share: the
// schedule builder and the executors, the two halves of the system. The
// service and procs phases run as companions in every run. On a shared
// 2-vCPU virtual machine the whole machine's speed swings by 10-40% for
// minutes at a time; with four workloads the runs the time budget allows
// were short enough for one swing to cover several of them, and the
// spread across seeds went past any usable bound. Two workloads leave
// room for runs long enough to average most swings out.
var workloads = []string{"pipeline", "solve"}

// primaryShare is the share of a run's time the workload's own phase
// gets. The other phases split the rest by companionWeight: the
// executors' operations are long and few, so they need more time than
// the builder's and the daemon's for steady medians.
const primaryShare = 0.4

var companionWeight = map[string]float64{"pipeline": 1, "service": 1, "solve": 2, "procs": 1.5}

// execute performs one run of the named workload.
func execute(r *run, workload string, seconds time.Duration) error {
	setups := make([]float64, 0, r.cfg.setupReps)
	var phases []phase
	for rep := 0; rep < r.cfg.setupReps; rep++ {
		closeAll(phases)
		phases = newPhases()
		runtime.GC()
		t0 := time.Now()
		for _, p := range phases {
			if err := p.setup(r); err != nil {
				closeAll(phases)
				return fmt.Errorf("%s setup: %w", p.name(), err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer closeAll(phases)
	r.m["setup_s"] = median(setups)

	shares := make([]float64, len(phases))
	found, weights := false, 0.0
	for i, p := range phases {
		if p.name() == workload {
			found = true
			continue
		}
		shares[i] = companionWeight[p.name()]
		weights += shares[i]
	}
	if !found {
		return fmt.Errorf("unknown workload %q", workload)
	}
	for i, p := range phases {
		shares[i] *= (1 - primaryShare) / weights
		if p.name() == workload {
			shares[i] = primaryShare
		}
	}
	// Each step goes to the phase furthest behind: first any phase short
	// of its minimum steps, then the one whose time used is the smallest
	// multiple of its share. The run ends when the time is up and every
	// phase has its minimum.
	used := make([]time.Duration, len(phases))
	deadline := time.Now().Add(seconds)
	for {
		next := -1
		for i, p := range phases {
			if p.ops() < p.minOps(r) {
				next = i
				break
			}
		}
		if next < 0 {
			if !time.Now().Before(deadline) {
				break
			}
			for i := range phases {
				if next < 0 || used[i].Seconds()/shares[i] < used[next].Seconds()/shares[next] {
					next = i
				}
			}
		}
		// A collection between steps keeps one phase's garbage from
		// being collected, concurrently, on the next phase's clock.
		runtime.GC()
		t0 := time.Now()
		phases[next].step(r)
		used[next] += time.Since(t0)
	}
	for i, p := range phases {
		fmt.Fprintf(r.out, "phase %-8s %6.2fs %5d steps\n", p.name(), used[i].Seconds(), p.ops())
		p.finish(r)
	}
	return nil
}

func closeAll(phases []phase) {
	for _, p := range phases {
		p.close()
	}
}

// memDelta times fn and reports the heap allocations it made, from
// runtime.MemStats before and after.
func memDelta(fn func() error) (d time.Duration, allocs, bytes float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	err = fn()
	d = time.Since(t0)
	runtime.ReadMemStats(&after)
	return d, float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc), err
}

// layers collects per-operation layer samples of a traced run; each
// metric is reported as its mean over the operations that touched it.
type layers map[string][]float64

func (l layers) add(name string, v float64) { l[name] = append(l[name], v) }

// addMem records a layer's time, allocs and bytes under the metric
// names <layer>_s, <layer>_allocs and <layer>_bytes.
func (l layers) addMem(layer string, d time.Duration, allocs, bytes float64) {
	l.add(layer+"_s", d.Seconds())
	l.add(layer+"_allocs", allocs)
	l.add(layer+"_bytes", bytes)
}

func (l layers) into(ms metricSet) {
	for name, xs := range l {
		ms[name] = mean(xs)
	}
}
