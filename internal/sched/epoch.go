package sched

import "fmt"

// This file holds the epoch-grouping helpers of the barrier-synchronous
// executors: the in-process engine (internal/faults) and both sides of
// the multi-process runner (internal/procrun) bucket an epoch's tasks
// per processor with StepGroups, and the engine sizes its per-message
// inboxes with CrossIncoming so sends never block a barrier.

// StepGroups buckets a schedule's not-yet-done tasks per processor in
// (start step, task id) order: processor p runs Proc(p), and a barrier
// executor walks that slice with one cursor as the steps advance. The
// buffers are kept across Group calls, so regrouping allocates only
// when the task count or the makespan grows.
type StepGroups struct {
	order   []TaskID // tasks by processor, each run sorted by (start, id)
	procOff []int32  // processor p owns order[procOff[p]:procOff[p+1]]
	scratch []TaskID // counting-sort scratch
	stepOff []int32  // counting-sort scratch, one slot per step or processor
}

// Group rebuilds the buckets for s's tasks not marked in done (nil:
// every task). assign overrides the schedule's recorded assignment when
// non-nil (recovered executions run residual schedules over a mutated
// assignment). It fails if a not-done task starts outside
// [0, s.Makespan) — the executor was handed a schedule that does not
// cover its work.
//
// Two stable counting-sort passes do the work: tasks by start step into
// scratch, then by processor into order. Both are linear in the task
// count plus the makespan.
func (g *StepGroups) Group(s *Schedule, assign Assignment, done []bool) error {
	inst := s.Inst
	if assign == nil {
		assign = s.Assign
	}
	m, nt := inst.M, inst.NTasks()
	T := int32(s.Makespan)
	if cap(g.order) < nt {
		g.order = make([]TaskID, nt)
		g.scratch = make([]TaskID, nt)
	}
	if cap(g.procOff) < m+1 {
		g.procOff = make([]int32, m+1)
	}
	g.procOff = g.procOff[:m+1]
	if need := max(int(T)+1, m); cap(g.stepOff) < need {
		g.stepOff = make([]int32, need)
	}
	byStart := g.stepOff[:T+1]
	clear(byStart)
	clear(g.procOff)
	count := 0
	for t := 0; t < nt; t++ {
		if done != nil && done[t] {
			continue
		}
		st := s.Start[t]
		if st < 0 || st >= T {
			return fmt.Errorf("sched: task %d is scheduled at step %d, outside the schedule's %d steps", t, st, T)
		}
		v, _ := inst.Split(TaskID(t))
		p := assign[v]
		if p < 0 || int(p) >= m {
			return fmt.Errorf("sched: task %d is assigned to processor %d of %d", t, p, m)
		}
		byStart[st+1]++
		g.procOff[p+1]++
		count++
	}
	for st := int32(1); st <= T; st++ {
		byStart[st] += byStart[st-1]
	}
	for p := 1; p <= m; p++ {
		g.procOff[p] += g.procOff[p-1]
	}
	for t := 0; t < nt; t++ {
		if done == nil || !done[t] {
			st := s.Start[t]
			g.scratch[byStart[st]] = TaskID(t)
			byStart[st]++
		}
	}
	next := g.stepOff[:m] // next free slot per processor
	copy(next, g.procOff[:m])
	for _, t := range g.scratch[:count] {
		v, _ := inst.Split(t)
		p := assign[v]
		g.order[next[p]] = t
		next[p]++
	}
	return nil
}

// Proc returns processor p's not-done tasks in (start step, task id)
// order, as of the last Group. The slice aliases g's storage.
func (g *StepGroups) Proc(p int32) []TaskID {
	return g.order[g.procOff[p]:g.procOff[p+1]]
}

// CrossIncoming counts, per destination processor, the cross-processor
// flux messages the not-yet-done tasks will send — the exact inbox
// capacity a channel (or socket) interconnect needs so no send can block
// across a barrier. done filters producers only (a finished consumer's
// incoming edges still count while their producer is outstanding); nil
// counts every cross edge of the instance.
func CrossIncoming(inst *Instance, assign Assignment, done []bool) []int {
	incoming := make([]int, inst.M)
	n := int32(inst.N())
	for i, d := range inst.DAGs {
		base := int32(i) * n
		for u := int32(0); u < n; u++ {
			if done != nil && done[base+u] {
				continue
			}
			pu := assign[u]
			for _, w := range d.Out(u) {
				if q := assign[w]; q != pu {
					incoming[q]++
				}
			}
		}
	}
	return incoming
}
