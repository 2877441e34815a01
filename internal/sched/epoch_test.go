package sched

import (
	"strings"
	"testing"

	"sweepsched/internal/rng"
)

// TestStepGroups checks the grouping every barrier executor walks: each
// processor gets exactly its not-done tasks, sorted by (start, id), and
// regrouping the same buffers with a different done set or assignment
// gives the fresh answer. Starts outside the makespan and processors
// outside the instance are errors.
func TestStepGroups(t *testing.T) {
	inst := testInstance(t, 3, 4, 3, 5)
	assign := RandomAssignment(inst.N(), inst.M, rng.New(9))
	s, err := ListSchedule(inst, assign, make(Priorities, inst.NTasks()))
	if err != nil {
		t.Fatal(err)
	}
	done := make([]bool, inst.NTasks())
	for t := range done {
		done[t] = t%3 == 0
	}
	var g StepGroups
	check := func(assign Assignment, done []bool) {
		t.Helper()
		if err := g.Group(s, assign, done); err != nil {
			t.Fatal(err)
		}
		if assign == nil {
			assign = s.Assign
		}
		seen := 0
		for p := int32(0); p < int32(inst.M); p++ {
			tasks := g.Proc(p)
			for i, task := range tasks {
				v, _ := inst.Split(task)
				if assign[v] != p || (done != nil && done[task]) {
					t.Fatalf("proc %d holds task %d (proc %d, done %v)", p, task, assign[v], done != nil && done[task])
				}
				if i > 0 {
					prev := tasks[i-1]
					if s.Start[prev] > s.Start[task] || (s.Start[prev] == s.Start[task] && prev >= task) {
						t.Fatalf("proc %d: task %d (step %d) before task %d (step %d)", p, prev, s.Start[prev], task, s.Start[task])
					}
				}
			}
			seen += len(tasks)
		}
		want := 0
		for task := range s.Start {
			if done == nil || !done[task] {
				want++
			}
		}
		if seen != want {
			t.Fatalf("grouped %d tasks, want %d", seen, want)
		}
	}
	check(nil, nil)
	check(nil, done)
	moved := append(Assignment(nil), s.Assign...)
	for v := range moved {
		moved[v] = (moved[v] + 1) % int32(inst.M)
	}
	check(moved, done)

	bad := *s
	bad.Start = append([]int32(nil), s.Start...)
	bad.Start[1] = int32(s.Makespan)
	if err := g.Group(&bad, nil, nil); err == nil || !strings.Contains(err.Error(), "outside the schedule") {
		t.Fatalf("start past the makespan: got %v", err)
	}
	moved[0] = int32(inst.M)
	if err := g.Group(s, moved, nil); err == nil || !strings.Contains(err.Error(), "assigned to processor") {
		t.Fatalf("processor outside the instance: got %v", err)
	}
}
