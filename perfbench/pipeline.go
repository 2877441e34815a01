package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"time"

	"sweepsched"
	"sweepsched/internal/dag"
	"sweepsched/internal/heuristics"
	"sweepsched/internal/mesh"
	"sweepsched/internal/obs"
	"sweepsched/internal/partition"
	"sweepsched/internal/quadrature"
	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
	"sweepsched/internal/verify"
)

const meshFamily = "tetonly"

// pipeRotation is the scheduler and block size of successive pipeline
// operations: a cell-assigned provable algorithm and two blocked
// heuristics, so the partitioner, all three priority fillers and both
// release modes of the kernel are exercised.
var pipeRotation = []struct {
	alg   sweepsched.Scheduler
	block int
}{
	{sweepsched.RandomDelaysPriority, 1},
	{sweepsched.DescendantDelays, 64},
	{sweepsched.DFDSDelays, 128},
}

// pipeOp is one request from mesh to audited schedule.
type pipeOp struct {
	meshSeed, schedSeed uint64
	alg                 sweepsched.Scheduler
	block               int
}

func pipeOpFor(cfg config, i int) pipeOp {
	rot := pipeRotation[i%len(pipeRotation)]
	return pipeOp{
		meshSeed:  derive(cfg.seed, "pipeline-mesh", i),
		schedSeed: derive(cfg.seed, "pipeline-sched", i),
		alg:       rot.alg,
		block:     rot.block,
	}
}

// schedule runs the operation through the public API, audit on.
func (op pipeOp) schedule(cfg config) (*sweepsched.Result, error) {
	p, err := sweepsched.NewProblemFromFamily(meshFamily, cfg.pipeScale, cfg.pipeK, cfg.pipeM, op.meshSeed)
	if err != nil {
		return nil, err
	}
	res, err := p.Schedule(op.alg, sweepsched.ScheduleOptions{BlockSize: op.block, Seed: op.schedSeed, Verify: true})
	if err != nil {
		return nil, err
	}
	if res.Metrics.Makespan != res.Schedule.Makespan || !(res.Ratio >= 1) || math.IsInf(res.Ratio, 0) {
		return nil, fmt.Errorf("inconsistent result: makespan %d/%d ratio %v",
			res.Metrics.Makespan, res.Schedule.Makespan, res.Ratio)
	}
	return res, nil
}

// traced composes the same operation from the layer calls Schedule makes,
// timing each layer and recording its allocations in l. It returns the
// schedule and the wall time of the composition.
func (op pipeOp) traced(cfg config, l layers) (*sched.Schedule, time.Duration, error) {
	begin := time.Now()
	layer := func(name string, fn func() error) error {
		d, allocs, bytes, err := memDelta(fn)
		l.addMem(name, d, allocs, bytes)
		return err
	}
	var msh *mesh.Mesh
	if err := layer("mesh.gen", func() (err error) {
		msh, err = mesh.Family(meshFamily, cfg.pipeScale, op.meshSeed)
		return err
	}); err != nil {
		return nil, 0, err
	}
	var skel *dag.Skeleton
	_ = layer("dag.skeleton", func() error { skel = dag.NewSkeleton(msh); return nil })
	var inst *sched.Instance
	if err := layer("dag.family", func() error {
		dirs, err := quadrature.Octant(cfg.pipeK)
		if err != nil {
			return err
		}
		inst, err = sched.FromDAGs(dag.BuildAllSkeleton(skel, dirs, 0), cfg.pipeM)
		if err != nil {
			return err
		}
		inst.Mesh, inst.Dirs = msh, dirs
		return nil
	}); err != nil {
		return nil, 0, err
	}
	edges := 0
	for _, d := range inst.DAGs {
		edges += d.NumEdges()
	}
	l.add("dag.edges", float64(edges))

	r := rng.New(op.schedSeed)
	var assign sched.Assignment
	assignFn := func() error {
		if op.block <= 1 {
			assign = sched.RandomAssignment(inst.N(), inst.M, r)
			return nil
		}
		part, nBlocks, err := partition.Blocks(partition.FromMesh(msh), op.block, op.schedSeed)
		if err != nil {
			return err
		}
		assign = sched.BlockAssignment(part, nBlocks, inst.M, r)
		return nil
	}
	// partition.assign_s reports the blocked operations, where the
	// partitioner runs; a cell assignment is one random draw per cell.
	var err error
	if op.block > 1 {
		err = layer("partition.assign", assignFn)
	} else {
		err = assignFn()
	}
	if err != nil {
		return nil, 0, err
	}

	// Priorities and kernel both run inside RunInto; their times come
	// from the program's own timers on a collector passed in.
	ws := sched.GetWorkspace(inst)
	col := obs.New()
	ws.SetObserver(col)
	s := &sched.Schedule{}
	_, runAllocs, runBytes, err := memDelta(func() error {
		return heuristics.RunInto(ws, s, op.alg, inst, assign, r, 0)
	})
	ws.Release()
	if err != nil {
		return nil, 0, err
	}
	snap := col.Snapshot()
	runT, listT := timerTotal(snap, "heuristics.run.time"), timerTotal(snap, "sched.list.time")
	if listT <= 0 || runT < listT {
		return nil, 0, fmt.Errorf("obs timers missing: heuristics.run %v sched.list %v", runT, listT)
	}
	l.add("heuristics.priorities_s", (runT - listT).Seconds())
	l.add("sched.kernel_s", listT.Seconds())
	l.add("sched.kernel_steps", float64(snap.CounterValue("sched.list.steps")))

	var met sched.Metrics
	_ = layer("sched.metrics", func() error { met = sched.Measure(s, 0); return nil })
	if err := layer("verify.audit", func() error {
		if err := s.Validate(); err != nil {
			return err
		}
		return verify.Schedule(inst, s, verify.Opts{Metrics: &met})
	}); err != nil {
		return nil, 0, err
	}
	wall := time.Since(begin)

	// Split RunInto's allocations: replay the exported priority filler
	// the scheduler uses on a scratch buffer and charge the rest to the
	// kernel (its workspace growth and the destination schedule).
	prio := make(sched.Priorities, inst.NTasks())
	_, pAllocs, pBytes, _ := memDelta(func() error {
		switch op.alg {
		case sweepsched.DescendantDelays:
			heuristics.DescendantPrioritiesInto(prio, inst, 0)
		case sweepsched.DFDSDelays:
			heuristics.DFDSPrioritiesInto(prio, inst, assign, 0)
		}
		return nil
	})
	l.add("heuristics.priorities_allocs", pAllocs)
	l.add("heuristics.priorities_bytes", pBytes)
	l.add("sched.kernel_allocs", math.Max(0, runAllocs-pAllocs))
	l.add("sched.kernel_bytes", math.Max(0, runBytes-pBytes))
	return s, wall, nil
}

func timerTotal(s obs.Snapshot, name string) time.Duration {
	for _, t := range s.Timers {
		if t.Name == name {
			return time.Duration(t.TotalNanos)
		}
	}
	return 0
}

// pipelinePhase builds audited schedules from fresh meshes.
type pipelinePhase struct {
	n                  int
	lat, ratio, c1, c2 []float64
	l                  layers
}

func (*pipelinePhase) name() string { return "pipeline" }

// setup has nothing to prepare: every operation generates its own mesh.
func (*pipelinePhase) setup(*run) error { return nil }

func (ph *pipelinePhase) ops() int { return ph.n }

// minOps covers the schedules that define the quality metrics; a traced
// run needs one op per scheduler.
func (*pipelinePhase) minOps(r *run) int {
	if r.traced {
		return len(pipeRotation)
	}
	return r.cfg.qualityOps
}

func (*pipelinePhase) close() {}

func (ph *pipelinePhase) step(r *run) {
	cfg, i := r.cfg, ph.n
	ph.n++
	op := pipeOpFor(cfg, i)
	if r.traced {
		if ph.l == nil {
			ph.l = layers{}
		}
		r.op("pipeline traced op", ph.tracedOp(cfg, op, i, ph.l))
		return
	}
	t0 := time.Now()
	res, err := op.schedule(cfg)
	d := time.Since(t0)
	if !r.op("pipeline op", err) {
		return
	}
	ph.lat = append(ph.lat, d.Seconds())
	if i < cfg.qualityOps {
		ph.ratio = append(ph.ratio, res.Ratio)
		ph.c1 = append(ph.c1, float64(res.Metrics.C1))
		ph.c2 = append(ph.c2, float64(res.Metrics.C2))
	}
}

func (ph *pipelinePhase) finish(r *run) {
	if r.traced {
		ph.l.into(r.m)
		return
	}
	r.m["pipeline_p50_s"] = percentile(ph.lat, 0.5)
	r.m["pipeline_p90_s"] = percentile(ph.lat, 0.9)
	r.m["makespan_ratio"] = mean(ph.ratio)
	r.m["c1_edges"] = mean(ph.c1)
	r.m["c2_rounds"] = mean(ph.c2)
}

// tracedOp runs one operation both ways — untraced through the public API
// and traced from the layer calls — alternating which goes first, and
// requires byte-identical schedule traces. The wall-time difference is
// the tracing overhead.
func (ph *pipelinePhase) tracedOp(cfg config, op pipeOp, i int, l layers) error {
	var (
		res             *sweepsched.Result
		s               *sched.Schedule
		plain, composed time.Duration
	)
	untraced := func() (err error) {
		t0 := time.Now()
		res, err = op.schedule(cfg)
		plain = time.Since(t0)
		return err
	}
	tracedFn := func() (err error) {
		s, composed, err = op.traced(cfg, l)
		return err
	}
	first, second := untraced, tracedFn
	if i%2 == 1 {
		first, second = tracedFn, untraced
	}
	if err := first(); err != nil {
		return err
	}
	if err := second(); err != nil {
		return err
	}
	var a, b bytes.Buffer
	if err := sweepsched.EncodeTrace(&a, res); err != nil {
		return err
	}
	if err := sched.EncodeTrace(&b, s); err != nil {
		return err
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		return errors.New("traced composition's schedule trace differs from Problem.Schedule's")
	}
	l.add("obs.trace_overhead_s", (composed - plain).Seconds())
	return nil
}
