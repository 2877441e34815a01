package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"sweepsched"
)

// solveSchedule is a schedule with its serial reference flux.
type solveSchedule struct {
	res *sweepsched.Result
	ref *sweepsched.TransportResult
}

// maxTries bounds the draws of a balanced block schedule.
const maxTries = 64

// newSolveSchedule schedules p with Algorithm 2 at the given block size and
// solves it serially for the reference flux. Random assignment of a few
// large blocks to processors can leave one processor with most of the
// mesh, and the sweep time follows the load; so block schedules are drawn
// from seeds derive(instanceSeed, tag, 0), derive(instanceSeed, tag, 1),
// ... until no processor holds more than 10% above its share, as a
// production partition would be balanced.
func newSolveSchedule(p *sweepsched.Problem, block int, tag string, tcfg sweepsched.TransportConfig) (solveSchedule, error) {
	var res *sweepsched.Result
	for try := 0; ; try++ {
		if try == maxTries {
			return solveSchedule{}, fmt.Errorf("no balanced block-%d schedule in %d draws", block, maxTries)
		}
		var err error
		res, err = p.Schedule(sweepsched.RandomDelaysPriority, sweepsched.ScheduleOptions{BlockSize: block, Seed: derive(instanceSeed, tag, try), Verify: true})
		if err != nil {
			return solveSchedule{}, err
		}
		if block <= 1 || balanced(res, p.N(), p.M()) {
			break
		}
	}
	ref, err := p.SolveTransport(res, tcfg)
	if err != nil {
		return solveSchedule{}, err
	}
	if !ref.Converged {
		return solveSchedule{}, fmt.Errorf("serial reference did not converge in %d iterations", ref.Iterations)
	}
	return solveSchedule{res: res, ref: ref}, nil
}

// balanced reports whether every processor holds at most 10% more cells
// than n/m.
func balanced(res *sweepsched.Result, n, m int) bool {
	load := make([]int, m)
	for v := 0; v < n; v++ {
		load[res.Processor(v)]++
	}
	for _, c := range load {
		if float64(c) > 1.1*float64(n)/float64(m) {
			return false
		}
	}
	return true
}

// sameFlux reports whether a solve reproduced the reference bit for bit.
func sameFlux(phi []float64, iters int, ref *sweepsched.TransportResult) error {
	if iters != ref.Iterations {
		return fmt.Errorf("%d iterations, serial took %d", iters, ref.Iterations)
	}
	if len(phi) != len(ref.Phi) {
		return fmt.Errorf("flux covers %d of %d cells", len(phi), len(ref.Phi))
	}
	for v := range phi {
		if math.Float64bits(phi[v]) != math.Float64bits(ref.Phi[v]) {
			return fmt.Errorf("flux differs from serial Solve at cell %d: %v vs %v", v, phi[v], ref.Phi[v])
		}
	}
	return nil
}

// solveFaults is the fault mix of every fault-tolerant solve.
var solveFaults = sweepsched.FaultSpec{Crashes: 1, Drops: 4, Delays: 4, Duplicates: 4}

// instanceSeed fixes the mesh and schedules of the solve and procs phases.
// Their cost follows the schedule's makespan and, for the batched
// interconnect, its slack structure: the transmissions of one solve vary
// tenfold across random cell-assigned schedules of the same mesh. A seeded
// instance would make those metrics track the seed rather than the code,
// so the seed drives the fault plans instead.
const instanceSeed = 1

// solveProblem builds the fixed instance of the solve and procs phases.
func solveProblem(cfg config) (*sweepsched.Problem, error) {
	return sweepsched.NewProblemFromFamily(meshFamily, cfg.solveScale, cfg.solveK, cfg.solveM, instanceSeed)
}

const (
	execSerial = iota
	execParallel
	execFT
	numExecs
)

// solvePhase runs transport to convergence on the serial, goroutine and
// fault-tolerant executors over a block-64 schedule (light communication)
// and a cell-assigned one (heavy communication). One round is every
// executor on both schedules; round q's fault-tolerant solves use the
// seed's q-th fault plan (cyclically).
type solvePhase struct {
	p      *sweepsched.Problem
	tcfg   sweepsched.TransportConfig
	scheds [2]solveSchedule
	plans  [2][]*sweepsched.FaultPlan

	n       int
	times   [numExecs][2][]float64
	batches []float64
	l       layers // per-op layer samples
	exact   layers // exact counts, from the first round
}

const (
	roundOps   = 2 * numExecs
	serialReps = 4
)

func (*solvePhase) name() string { return "solve" }

func (ph *solvePhase) ops() int { return ph.n }

// minOps is one round, which fixes the exact counts.
func (*solvePhase) minOps(*run) int { return roundOps }

func (*solvePhase) close() {}

func (ph *solvePhase) setup(r *run) error {
	cfg := r.cfg
	p, err := solveProblem(cfg)
	if err != nil {
		return err
	}
	ph.p = p
	ph.tcfg = sweepsched.TransportConfig{SigmaT: 1, SigmaS: 0.5, Source: 1}
	for j, block := range []int{cfg.solveBlock, 1} {
		if ph.scheds[j], err = newSolveSchedule(p, block, fmt.Sprintf("solve-sched%d", j), ph.tcfg); err != nil {
			return err
		}
		for q := 0; q < cfg.solvePlans; q++ {
			ph.plans[j] = append(ph.plans[j], sweepsched.NewFaultPlan(ph.scheds[j].res, solveFaults, derive(cfg.seed, "solve-plan", q)))
		}
	}
	ph.l, ph.exact = layers{}, layers{}
	return nil
}

func (ph *solvePhase) step(r *run) {
	i := ph.n
	ph.n++
	round, exec, j := i/roundOps, i%numExecs, (i/numExecs)%2
	ss := ph.scheds[j]
	var (
		res *sweepsched.TransportResult
		d   time.Duration
		err error
	)
	switch exec {
	case execSerial:
		// A serial solve takes a few milliseconds, so one step runs
		// serialReps of them, each a sample.
		for k := 0; k < serialReps; k++ {
			t0 := time.Now()
			res, err = ph.p.SolveTransport(ss.res, ph.tcfg)
			d = time.Since(t0)
			if err == nil {
				err = sameFlux(res.Phi, res.Iterations, ss.ref)
			}
			if !r.op("serial solve", err) {
				return
			}
			ph.times[exec][j] = append(ph.times[exec][j], d.Seconds())
			ph.l.add("transport.sweep_s", d.Seconds()/float64(res.Iterations))
		}
		return
	case execParallel:
		var allocs, bytes float64
		d, allocs, bytes, err = memDelta(func() (err error) {
			res, err = ph.p.SolveTransportParallel(ss.res, ph.tcfg)
			return err
		})
		if err == nil {
			ph.l.add("transport.parallel_step_s", d.Seconds()/float64(ss.res.Schedule.Makespan*res.Iterations))
			ph.l.add("transport.parallel_allocs", allocs)
			ph.l.add("transport.parallel_bytes", bytes)
			if round == 0 {
				ph.batches = append(ph.batches, float64(res.Comm.Batches))
				ph.exact.add("comm.messages", float64(res.Comm.Messages))
				ph.exact.add("comm.batches", float64(res.Comm.Batches))
				ph.exact.add("comm.bytes", float64(res.Comm.Bytes))
			}
		}
	case execFT:
		var rep *sweepsched.RecoveryReport
		t0 := time.Now()
		res, rep, err = ph.p.SolveTransportFaultTolerant(context.Background(), ss.res, ph.tcfg, ph.plans[j][round%len(ph.plans[j])])
		d = time.Since(t0)
		if err == nil && round == 0 {
			ph.exact.add("faults.epochs", float64(rep.Epochs))
			ph.exact.add("faults.recoveries", float64(rep.Recoveries))
			ph.exact.add("faults.tasks_replayed", float64(rep.TasksReplayed))
			ph.exact.add("faults.penalty_steps", float64(rep.Penalty()))
		}
	}
	if err == nil {
		err = sameFlux(res.Phi, res.Iterations, ss.ref)
	}
	if r.op("solve op", err) {
		ph.times[exec][j] = append(ph.times[exec][j], d.Seconds())
	}
}

func (ph *solvePhase) finish(r *run) {
	if r.traced {
		ph.exact.add("transport.iterations", float64(ph.scheds[0].ref.Iterations))
		ph.exact.add("transport.iterations", float64(ph.scheds[1].ref.Iterations))
		ph.l.into(r.m)
		ph.exact.into(r.m)
		return
	}
	// Each executor's time is the mean of its two per-schedule medians:
	// the schedules differ in communication volume, so one median over
	// both would sit between two clusters.
	perExec := func(exec int) float64 {
		return (median(ph.times[exec][0]) + median(ph.times[exec][1])) / 2
	}
	r.m["solve_serial_s"] = perExec(execSerial)
	r.m["solve_parallel_s"] = perExec(execParallel)
	r.m["solve_ft_s"] = perExec(execFT)
	r.m["transmissions"] = mean(ph.batches)
}

// procsPhase runs a pure absorber (two sweeps, no faults) across worker
// OS processes: the only layer that crosses process boundaries. Its
// instance is the fixed one of the solve phase; the seed plays no part.
type procsPhase struct {
	p    *sweepsched.Problem
	tcfg sweepsched.TransportConfig
	ss   solveSchedule
	dir  string // checkpoint shards, one subdirectory per solve

	n     int
	times []float64
	l     layers // per-op layer samples
	exact layers // exact counts, from the first solve
}

func (*procsPhase) name() string { return "procs" }

func (ph *procsPhase) ops() int { return ph.n }

func (*procsPhase) minOps(*run) int { return 1 }

func (ph *procsPhase) close() {
	if ph.dir != "" {
		_ = os.RemoveAll(ph.dir) // scratch space; nothing to report on failure
	}
}

func (ph *procsPhase) setup(r *run) error {
	p, err := solveProblem(r.cfg)
	if err != nil {
		return err
	}
	ph.p = p
	ph.tcfg = sweepsched.TransportConfig{SigmaT: 1, SigmaS: 0, Source: 1}
	if ph.ss, err = newSolveSchedule(p, r.cfg.solveBlock, "procs-sched", ph.tcfg); err != nil {
		return err
	}
	ph.l, ph.exact = layers{}, layers{}
	if err := os.MkdirAll(r.workdir, 0o755); err != nil {
		return err
	}
	ph.dir, err = os.MkdirTemp(r.workdir, "procs-")
	return err
}

func (ph *procsPhase) step(r *run) {
	i := ph.n
	ph.n++
	col := sweepsched.NewStatsCollector()
	res, d, err := ph.solve(filepath.Join(ph.dir, strconv.Itoa(i)), col)
	if err == nil {
		err = sameFlux(res.Phi, res.Iterations, ph.ss.ref)
	}
	if !r.op("procs op", err) {
		return
	}
	ph.times = append(ph.times, d.Seconds())
	steps := float64(col.Counter("procrun.steps").Value())
	if len(ph.exact) == 0 {
		ph.exact.add("procrun.steps", steps)
		ph.exact.add("procrun.transmissions", float64(res.Comm.Batches))
		ph.exact.add("procrun.bytes", float64(res.Comm.Bytes))
	}
	ph.l.add("procrun.step_s", d.Seconds()/math.Max(steps, 1))
}

func (ph *procsPhase) finish(r *run) {
	if r.traced {
		ph.l.into(r.m)
		ph.exact.into(r.m)
		return
	}
	r.m["solve_procs_s"] = median(ph.times)
}

// procsCkptEvery is the barrier-step interval of the workers' durable
// checkpoints. Every checkpoint is fsynced; at the default interval of 8
// steps the fsyncs take about half of a solve on a virtual disk, and
// their latency is the host's, not the code's. At 1024 each worker still
// writes a few durable shards per sweep.
const procsCkptEvery = 1024

// solve runs one multi-process solve with its checkpoint shards in dir.
func (ph *procsPhase) solve(dir string, col *sweepsched.StatsCollector) (*sweepsched.ProcRunResult, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	t0 := time.Now()
	res, err := ph.p.SolveTransportProcs(ctx, ph.ss.res, ph.tcfg, nil, sweepsched.ProcRunOptions{CkptDir: dir, CkptEvery: procsCkptEvery, Collector: col})
	return res, time.Since(t0), err
}
