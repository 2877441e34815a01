// Package simulate executes a sweep schedule on a simulated distributed
// machine: one goroutine per processor, a channel interconnect, and a
// barrier-synchronous step loop. It is the executable counterpart of the
// paper's simulation methodology — every precedence is enforced by an
// actual message arriving (or local completion), so a schedule that
// validates here would run correctly on a real cluster with the same task
// placement.
//
// The machine is the repository's one in-process executor,
// faults.Engine, with a zero-cost compute: Run is RunFaulty without a
// fault plan. The simulator doubles as a cross-check of the analytic
// objective functions: it recounts total messages (= C1) and per-step
// maximum send-degrees (summing to C2) from the messages that actually
// flow.
//
// Run rejects infeasible schedules with a descriptive error; RunCtx adds
// cooperative cancellation (the coordinator observes ctx between barrier
// steps and tears every worker down before returning), and RunFaulty
// executes under an injected fault plan with checkpointed recovery
// rescheduling (see internal/faults).
package simulate

import (
	"context"

	"sweepsched/internal/faults"
	"sweepsched/internal/sched"
)

// Result summarizes an execution.
type Result struct {
	Steps         int   // barrier steps executed (== schedule makespan when fault-free)
	TotalMessages int64 // messages sent across processors (== C1)
	CommRounds    int64 // Σ_step max_p (messages sent by p at that step) == C2
}

// Run executes the schedule. It returns an error if any task would run
// before one of its inputs is available — i.e., if the schedule is
// infeasible under message passing.
func Run(s *sched.Schedule) (*Result, error) {
	return RunCtx(context.Background(), s)
}

// RunCtx is Run with cooperative cancellation: it returns ctx.Err() within
// one barrier step of cancellation, after joining every worker goroutine
// (no leaks, no blocked channel sends).
func RunCtx(ctx context.Context, s *sched.Schedule) (*Result, error) {
	res, _, err := RunFaulty(ctx, s, nil)
	return res, err
}

// RunFaulty executes the schedule under an injected fault plan with
// checkpointed recovery (internal/faults): crashed processors' cells are
// rescheduled onto survivors, dropped and delayed fluxes are reread from
// the durable checkpoint after a recovery reschedule. The Result counts
// what actually flowed (replays included), so with a nil plan it is Run's
// C1/C2 accounting; the RecoveryReport is byte-for-byte reproducible for
// a fixed plan.
func RunFaulty(ctx context.Context, s *sched.Schedule, plan *faults.Plan) (*Result, *faults.RecoveryReport, error) {
	eng, err := faults.NewEngine(s, plan)
	if err != nil {
		return nil, nil, err
	}
	psi := make([]float64, s.Inst.NTasks())
	zero := func(sched.TaskID, float64) float64 { return 0 }
	if err := eng.Sweep(ctx, zero, psi); err != nil {
		return nil, eng.Report(), err
	}
	rep := eng.Report()
	return &Result{
		Steps:         rep.StepsExecuted,
		TotalMessages: rep.MessagesSent,
		CommRounds:    rep.CommRounds,
	}, rep, nil
}
