package sched

import "fmt"

// This file holds the epoch-grouping helpers of the barrier-synchronous
// executors: the multi-process runner (internal/procrun) partitions a
// schedule into tasks per (processor, step) with GroupSteps, and both it
// and the in-process engine (internal/faults) size interconnect buffers
// with CrossIncoming so sends never block a barrier.

// GroupSteps groups the schedule's not-yet-done tasks by (processor,
// start step), preserving TaskID order within each group. assign
// overrides the schedule's recorded assignment when non-nil (recovered
// executions run residual schedules over a mutated assignment); done may
// be nil (group everything). It returns one map per processor of the
// instance, and an error if a not-done task is unscheduled (Start < 0) —
// the executor was handed a schedule that does not cover its work.
func GroupSteps(s *Schedule, assign Assignment, done []bool) ([]map[int32][]TaskID, error) {
	inst := s.Inst
	if assign == nil {
		assign = s.Assign
	}
	byStep := make([]map[int32][]TaskID, inst.M)
	for p := range byStep {
		byStep[p] = map[int32][]TaskID{}
	}
	nt := inst.NTasks()
	for t := 0; t < nt; t++ {
		if done != nil && done[t] {
			continue
		}
		if s.Start[t] < 0 {
			return nil, fmt.Errorf("sched: task %d unscheduled (start < 0)", t)
		}
		v, _ := inst.Split(TaskID(t))
		p := assign[v]
		byStep[p][s.Start[t]] = append(byStep[p][s.Start[t]], TaskID(t))
	}
	return byStep, nil
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
