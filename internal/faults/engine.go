package faults

import (
	"context"
	"fmt"
	"sync"

	"sweepsched/internal/comm"
	"sweepsched/internal/lb"
	"sweepsched/internal/obs"
	"sweepsched/internal/sched"
	"sweepsched/internal/verify"
)

// Compute produces the angular flux of one task from its averaged upwind
// inflow. The transport solver supplies the cell-balance closure; the
// machine simulator supplies a constant (it only tracks dependencies).
// Compute must be a pure function of (task, inflow) and state that is
// constant within one sweep, so that replayed tasks reproduce their values
// bitwise.
type Compute func(t sched.TaskID, inflow float64) float64

// RecoveryReport accounts for one fault-injected execution. With a fixed
// plan it is identical byte-for-byte (via String) across runs and
// GOMAXPROCS settings: every field is accumulated in barrier order or
// per-processor, never in goroutine-arrival order.
type RecoveryReport struct {
	Seed uint64
	// Faults actually applied (planned events whose step or message never
	// occurred do not count).
	Crashes, Drops, Delays, Duplicates int
	Epochs                             int // executor epochs (1 = fault-free)
	Recoveries                         int // checkpoint + reschedule cycles
	TasksReplayed                      int // completions lost to crashes and re-executed
	StepsExecuted                      int // global barrier steps run
	StepsFaultFree                     int // steps the fault-free schedule would take
	MessagesSent                       int64
	CommRounds                         int64 // Σ_step max_p messages sent by p
	DeadProcs                          []int32
	// LastResidualBound is the load lower bound (lb.ResidualLoad) of the
	// most recent residual reschedule; the residual makespan actually paid
	// can be read off the step counts.
	LastResidualBound int
}

// Penalty is the barrier-step overhead versus the fault-free execution.
func (r *RecoveryReport) Penalty() int { return r.StepsExecuted - r.StepsFaultFree }

// String renders the report deterministically.
func (r *RecoveryReport) String() string {
	return fmt.Sprintf("recovery: seed=%#x faults{crash=%d drop=%d delay=%d dup=%d} epochs=%d recoveries=%d replayed=%d steps=%d faultfree=%d penalty=%d msgs=%d rounds=%d dead=%v residual_bound=%d",
		r.Seed, r.Crashes, r.Drops, r.Delays, r.Duplicates, r.Epochs, r.Recoveries,
		r.TasksReplayed, r.StepsExecuted, r.StepsFaultFree, r.Penalty(),
		r.MessagesSent, r.CommRounds, r.DeadProcs, r.LastResidualBound)
}

// Engine is the in-process executor of the repository: it runs sweeps of
// a schedule on a simulated distributed machine — one goroutine per live
// processor, a channel interconnect, barrier-synchronous steps — under an
// optional injected fault plan. transport.SolveParallel and
// simulate.Run are this engine with a nil plan. It is stateful across
// sweeps — crashed processors stay dead, and the recovered assignment
// and schedule persist — so the transport solver runs its whole source
// iteration through one engine, and the per-processor state below is
// allocated once per engine, not per sweep or step.
//
// Execution proceeds in epochs. An epoch runs the current (residual)
// schedule until it finishes, a planned crash fires, or a worker stalls on
// a flux the injector withheld. Ending an epoch durably checkpoints every
// completed task except those the crashed processor finished since the
// last periodic checkpoint (those are lost and replayed); recovery is
// delegated to the shared Recovery core — orphan-cell reassignment onto
// the least-loaded survivors and residual list scheduling
// (sched.ListScheduleResidual) — the same core internal/procrun drives
// for real kill -9'd worker processes.
//
// The interconnect is a delivery policy of the one epoch loop and worker
// (SetNoBatch). By default a released flux joins its destination's open
// envelope in a shared comm.Outbox, tagged with its earliest consumer's
// step, and the coordinator flushes exactly the due envelopes at each
// barrier. The NoBatch oracle instead transmits every message on its own
// the moment the injector releases it. Both deliver every flux by its
// consumer's step, so fluxes and every RecoveryReport field agree
// bitwise across policies; only the transmission counts differ.
type Engine struct {
	inst *sched.Instance
	orig *sched.Schedule
	cur  *sched.Schedule
	inj  *Injector
	rec  *Recovery

	sinceCkpt   [][]sched.TaskID // per proc: completions since the last durable checkpoint
	lastCkpt    int32
	ckptEvery   int32
	globalStep  int32
	needRebuild bool
	report      RecoveryReport

	// noBatch selects the per-message delivery policy; see Engine.
	noBatch bool
	// commBatches/commBytes accumulate physical transmissions on the
	// batched path (the unbatched equivalents are derived from
	// MessagesSent); see CommTraffic.
	commBatches, commBytes int64

	// col receives execution counters (nil = off); ctr caches its comm.*
	// handles.
	col *obs.Collector
	ctr comm.Counters

	// done marks the sweep's completed tasks; each worker sets its own
	// tasks' entries during a step, the coordinator reads and rolls them
	// back between steps. doneStart is done at epoch start: those fluxes
	// are durable and read straight from psi.
	done, doneStart []bool
	// grouped is the schedule groups was built for (nil after a recovery
	// replaces the schedule): processor p runs groups.Proc(p).
	grouped *sched.Schedule
	groups  sched.StepGroups
	// recv[p] holds the cross fluxes p received this epoch, keyed by
	// producing task; it is cleared, not reallocated, per epoch.
	recv   []map[sched.TaskID]float64
	inbox  []chan *comm.Batch
	outbox *comm.Outbox
	stepCh []chan stepMsg
	// acks is buffered to the processor count: each worker has at most
	// one ack outstanding, so a worker never blocks on a coordinator that
	// stopped collecting (cancellation, teardown).
	acks    chan workerAck
	spawned []int32 // the epoch's workers (live processors)
}

// SetNoBatch selects the per-message oracle interconnect (true) or the
// batched envelopes (false, the default). Toggle before the first Sweep.
func (e *Engine) SetNoBatch(on bool) { e.noBatch = on }

// CommTraffic reports the engine's accumulated observed communication:
// logical messages and barrier rounds (also in the RecoveryReport), plus
// the physical transmissions and wire(-model) bytes that carried them —
// envelopes when batching, one frame per message on the oracle path.
func (e *Engine) CommTraffic() (messages, batches, bytes, rounds int64) {
	messages = e.report.MessagesSent
	rounds = e.report.CommRounds
	if e.noBatch {
		return messages, messages, comm.PerMessageWireBytes(int(messages)), rounds
	}
	return messages, e.commBatches, e.commBytes, rounds
}

// Observe attaches a stats collector: the engine reports epochs,
// recoveries, replays, live processors and the comm.* traffic series,
// and the workspace forwards the sched.* kernel series for the residual
// reschedules. A nil collector detaches.
func (e *Engine) Observe(col *obs.Collector) {
	e.col = col
	e.ctr = comm.NewCounters(col)
	e.rec.Observe(col)
}

// SetVerify toggles auditing of every recovery reschedule with
// verify.Residual (a failed audit aborts the sweep with its diagnostic).
// Defaults to off unless SWEEPSCHED_VERIFY forces it.
func (e *Engine) SetVerify(on bool) { e.rec.SetVerify(on) }

// Audit cross-checks the engine's accumulated accounting for internal
// consistency (verify.Recovery). Call it after the run completes.
func (e *Engine) Audit() error {
	r := e.Report()
	return verify.Recovery(verify.RecoveryStats{
		Procs:   e.inst.M,
		Crashes: r.Crashes, Drops: r.Drops, Delays: r.Delays, Duplicates: r.Duplicates,
		Epochs: r.Epochs, Recoveries: r.Recoveries, TasksReplayed: r.TasksReplayed,
		StepsExecuted: r.StepsExecuted, StepsFaultFree: r.StepsFaultFree,
		MessagesSent: r.MessagesSent, CommRounds: r.CommRounds,
		DeadProcs: r.DeadProcs,
	})
}

// NewEngine prepares an executor for the schedule. plan may be nil (no
// faults). The schedule must be feasible; infeasibility is detected
// during execution and reported as an error.
func NewEngine(s *sched.Schedule, plan *Plan) (*Engine, error) {
	rec, err := NewRecovery(s)
	if err != nil {
		return nil, err
	}
	m, nt := s.Inst.M, s.Inst.NTasks()
	e := &Engine{
		inst:      s.Inst,
		orig:      s,
		cur:       s,
		inj:       NewInjector(plan),
		rec:       rec,
		sinceCkpt: make([][]sched.TaskID, m),
		ckptEvery: Spec{}.withDefaults().CheckpointEvery,
		done:      make([]bool, nt),
		doneStart: make([]bool, nt),
		recv:      make([]map[sched.TaskID]float64, m),
		inbox:     make([]chan *comm.Batch, m),
		outbox:    comm.NewOutbox(m),
		stepCh:    make([]chan stepMsg, m),
		acks:      make(chan workerAck, m),
	}
	for p := 0; p < m; p++ {
		e.recv[p] = map[sched.TaskID]float64{}
		e.stepCh[p] = make(chan stepMsg)
	}
	if plan != nil {
		e.report.Seed = plan.Seed
		e.ckptEvery = plan.Spec.withDefaults().CheckpointEvery
	}
	return e, nil
}

// Report returns a snapshot of the execution accounting.
func (e *Engine) Report() *RecoveryReport {
	r := e.report
	r.Crashes = e.inj.Applied(Crash)
	r.Drops = e.inj.Applied(Drop)
	r.Delays = e.inj.Applied(Delay)
	r.Duplicates = e.inj.Applied(Duplicate)
	r.DeadProcs = e.rec.Dead()
	return &r
}

// Sweep executes every task exactly once (replays excepted), writing each
// task's flux into psi (indexed like the schedule's tasks), recovering
// from injected faults as needed. It returns ctx.Err() promptly on
// cancellation, an *UnrecoverableError once every processor has crashed
// with work outstanding, or a descriptive error for infeasible schedules.
func (e *Engine) Sweep(ctx context.Context, compute Compute, psi []float64) error {
	nt := e.inst.NTasks()
	if len(psi) != nt {
		return fmt.Errorf("faults: psi has %d entries for %d tasks", len(psi), nt)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if e.needRebuild {
		full, err := e.rec.RebuildFull()
		if err != nil {
			return err
		}
		e.cur, e.grouped = full, nil
		e.needRebuild = false
	}
	e.report.StepsFaultFree += e.orig.Makespan

	clear(e.done)
	remaining := nt
	cur := e.cur
	for remaining > 0 {
		if e.rec.NLive() == 0 {
			return &UnrecoverableError{DeadProcs: e.Report().DeadProcs, Remaining: remaining}
		}
		var reason epochEnd
		var err error
		remaining, reason, err = e.runEpoch(ctx, cur, compute, psi, remaining)
		if err != nil {
			return err
		}
		if remaining == 0 {
			break
		}
		switch reason {
		case endCompleted:
			return fmt.Errorf("faults: internal: epoch completed with %d tasks remaining", remaining)
		case endCrash, endStall:
			if e.rec.NLive() == 0 {
				return &UnrecoverableError{DeadProcs: e.Report().DeadProcs, Remaining: remaining}
			}
			e.report.Recoveries++
			e.col.Counter("faults.recoveries").Inc()
			e.report.LastResidualBound = lb.ResidualLoad(remaining, e.rec.NLive())
			resid, err := e.rec.Reschedule(e.done)
			if err != nil {
				return err
			}
			cur, e.grouped = resid, nil
		}
	}
	return nil
}

type epochEnd uint8

const (
	endCompleted epochEnd = iota
	endCrash
	endStall
)

// stepMsg opens one barrier step of an epoch; a negative local step tells
// the worker to exit.
type stepMsg struct{ local, global int32 }

var stopWorker = stepMsg{local: -1}

// workerAck is one worker's report of one step.
type workerAck struct {
	proc      int32
	completed int32 // tasks completed (marked in Engine.done)
	sent      int32 // logical cross-processor messages
	stalled   bool
	stallTask sched.TaskID // the task that could not run
	stallMiss sched.TaskID // the upwind flux it is missing
	err       error
}

// group buckets cur's not-done tasks per processor in (start, id) order
// and sizes the inboxes for the delivery policy. The grouping is rebuilt
// only when a recovery replaces the schedule, so fault-free sweeps reuse
// the first one.
func (e *Engine) group(cur *sched.Schedule) error {
	if cur == e.grouped {
		return nil
	}
	if err := e.groups.Group(cur, e.rec.Assign(), e.done); err != nil {
		return err
	}
	e.grouped = cur

	// Inbox capacities: an envelope per barrier when batching; every
	// cross edge of the assignment plus slack for duplicated and matured
	// delayed messages per message, so no send ever blocks a barrier.
	if !e.noBatch {
		for p := range e.inbox {
			if e.inbox[p] == nil {
				e.inbox[p] = make(chan *comm.Batch, 2)
			}
		}
		return nil
	}
	slack := 2
	if e.inj.plan != nil {
		slack += 2 * len(e.inj.plan.Events)
	}
	for p, in := range sched.CrossIncoming(e.inst, e.rec.Assign(), nil) {
		if cap(e.inbox[p]) < in+slack {
			e.inbox[p] = make(chan *comm.Batch, in+slack)
		}
	}
	return nil
}

// runEpoch executes cur's not-done tasks barrier-synchronously until
// completion, a crash, or a stall. It owns the worker goroutines for the
// epoch and always tears them down before returning (no leaks on any
// path, including cancellation).
func (e *Engine) runEpoch(ctx context.Context, cur *sched.Schedule,
	compute Compute, psi []float64, remaining int) (int, epochEnd, error) {

	e.report.Epochs++
	e.col.Counter("faults.epochs").Inc()
	e.col.Gauge("faults.live_procs").Set(int64(e.rec.NLive()))
	if err := e.group(cur); err != nil {
		return remaining, endCompleted, err
	}
	copy(e.doneStart, e.done)

	var wg sync.WaitGroup
	e.spawned = e.spawned[:0]
	for p := int32(0); p < int32(e.inst.M); p++ {
		if !e.rec.Live(p) {
			continue
		}
		e.spawned = append(e.spawned, p)
		wg.Add(1)
		go func(p int32) {
			defer wg.Done()
			e.worker(p, cur, compute, psi)
		}(p)
	}
	defer e.teardown(&wg)

	for ls := int32(0); ls < int32(cur.Makespan); ls++ {
		g := e.globalStep
		// Planned crashes due at this barrier fire before the step runs:
		// the processor completes steps strictly before its crash step.
		var dying []int32
		for _, p := range e.spawned {
			if cs := e.inj.CrashStep(p); cs >= 0 && cs <= g {
				dying = append(dying, p)
			}
		}
		if len(dying) > 0 {
			e.teardown(&wg)
			return e.applyCrashes(dying, remaining), endCrash, nil
		}
		// Periodic durable checkpoint: completions up to here can no longer
		// be lost to a crash.
		if g-e.lastCkpt >= e.ckptEvery {
			for p := range e.sinceCkpt {
				e.sinceCkpt[p] = e.sinceCkpt[p][:0]
			}
			e.lastCkpt = g
		}
		// Held (delayed) messages that matured are released before the
		// barrier opens: straight into the inbox per message, or into the
		// destination's envelope with an immediate deadline, so they still
		// arrive at their maturity step (maturing past the consumer's step
		// stalls the epoch under either policy).
		for _, dl := range e.inj.Matured(g) {
			if e.rec.Live(dl.To) {
				e.deliver(dl.To, dl.Task, dl.Psi, ls)
			}
		}
		if !e.noBatch {
			e.outbox.FlushDue(ls, e.flush)
		}
		for _, p := range e.spawned {
			select {
			case e.stepCh[p] <- stepMsg{local: ls, global: g}:
			case <-ctx.Done():
				return remaining, endCompleted, ctx.Err()
			}
		}
		var stepMax int32
		var feasErr error
		feasProc := int32(-1)
		stalled := false
		unexplained := false
		stallTask, stallMiss := sched.TaskID(-1), sched.TaskID(-1)
		for range e.spawned {
			select {
			case a := <-e.acks:
				remaining -= int(a.completed)
				e.report.MessagesSent += int64(a.sent)
				e.ctr.Logical(int(a.sent))
				if e.noBatch {
					e.ctr.PerMessage(int(a.sent))
				}
				if a.sent > stepMax {
					stepMax = a.sent
				}
				if a.err != nil && (feasProc < 0 || a.proc < feasProc) {
					feasErr, feasProc = a.err, a.proc
				}
				if a.stalled {
					stalled = true
					if stallTask < 0 || a.stallTask < stallTask {
						stallTask, stallMiss = a.stallTask, a.stallMiss
					}
					if !e.inj.Explains(a.stallMiss, a.proc) {
						unexplained = true
					}
				}
			case <-ctx.Done():
				return remaining, endCompleted, ctx.Err()
			}
		}
		e.report.CommRounds += int64(stepMax)
		e.globalStep++
		e.report.StepsExecuted++
		if feasErr != nil {
			return remaining, endCompleted, feasErr
		}
		if stalled {
			if unexplained {
				return remaining, endCompleted, fmt.Errorf(
					"faults: task %d stalled on flux from task %d at step %d with no injected fault to blame: schedule is infeasible",
					stallTask, stallMiss, g)
			}
			return remaining, endStall, nil
		}
	}
	return remaining, endCompleted, nil
}

// teardown stops the epoch's workers and recycles everything still in
// flight: held delayed messages and undelivered envelopes are moot, since
// the next epoch reads completed producers' fluxes from the durable psi.
// It is idempotent within an epoch.
func (e *Engine) teardown(wg *sync.WaitGroup) {
	for _, p := range e.spawned {
		e.stepCh[p] <- stopWorker
	}
	e.spawned = e.spawned[:0]
	wg.Wait()
	for len(e.acks) > 0 {
		<-e.acks
	}
	e.inj.DiscardDelayed()
	e.outbox.DiscardAll()
	for p := range e.inbox {
		e.drain(int32(p), nil)
	}
}

// deliver releases one flux for destination to under the engine's
// policy: its own transmission now (NoBatch), or an item of to's open
// envelope due at the given local step.
func (e *Engine) deliver(to int32, t sched.TaskID, psi float64, due int32) {
	if e.noBatch {
		b := comm.GetBatch()
		b.To = to
		b.Items = append(b.Items, comm.Item{Task: t, Psi: psi})
		e.inbox[to] <- b
		return
	}
	e.outbox.Add(to, t, psi, due)
}

// flush transmits one due envelope (the batched policy's only send).
func (e *Engine) flush(b *comm.Batch) {
	e.commBatches++
	e.commBytes += comm.BatchWireBytes(len(b.Items))
	e.ctr.Envelope(len(b.Items))
	e.inbox[b.To] <- b
}

// drain empties p's inbox, recording every received flux in recv (nil
// discards) and recycling the envelopes.
func (e *Engine) drain(p int32, recv map[sched.TaskID]float64) {
	for {
		select {
		case b := <-e.inbox[p]:
			for _, it := range b.Items {
				if recv != nil {
					recv[it.Task] = it.Psi
				}
			}
			comm.PutBatch(b)
		default:
			return
		}
	}
}

// worker is one live processor for one epoch. Per step it drains its
// inbox, runs its tasks scheduled at that step (reading checkpointed
// upwind fluxes straight from psi and in-epoch cross fluxes from received
// messages), marks them done, and routes every cross-processor send
// through the injector and the delivery policy.
func (e *Engine) worker(p int32, cur *sched.Schedule, compute Compute, psi []float64) {
	inst := e.inst
	assign := e.rec.Assign()
	n := int32(inst.N())
	tasks := e.groups.Proc(p)
	recv := e.recv[p]
	clear(recv)
	for {
		sm := <-e.stepCh[p]
		if sm.local < 0 {
			return
		}
		e.drain(p, recv)
		a := workerAck{proc: p}
	run:
		for len(tasks) > 0 && cur.Start[tasks[0]] == sm.local {
			t := tasks[0]
			v, i := inst.Split(t)
			d := inst.DAGs[i]
			base := sched.TaskID(int32(i) * n)
			inflow := 0.0
			preds := d.In(v)
			for _, u := range preds {
				ut := base + sched.TaskID(u)
				switch {
				case e.doneStart[ut]:
					inflow += psi[ut] // durable checkpoint, written in an earlier epoch
				case assign[u] == p:
					if !e.done[ut] {
						a.err = fmt.Errorf("faults: proc %d task %d at step %d: local input %d not done", p, t, sm.global, ut)
						break run
					}
					inflow += psi[ut]
				default:
					val, have := recv[ut]
					if !have {
						a.stalled, a.stallTask, a.stallMiss = true, t, ut
						break run
					}
					inflow += val
				}
			}
			if len(preds) > 0 {
				inflow /= float64(len(preds))
			}
			val := compute(t, inflow)
			psi[t] = val
			e.done[t] = true
			e.sinceCkpt[p] = append(e.sinceCkpt[p], t)
			a.completed++
			tasks = tasks[1:]
			for _, w := range d.Out(v) {
				q := assign[w]
				if q == p {
					continue
				}
				a.sent++
				copies := e.inj.OnSend(t, q, val, sm.global)
				if copies == 0 {
					continue
				}
				// The receiver keys received fluxes by producing task, so a
				// delivery released for this edge can satisfy every consumer
				// of (t -> q): its deadline is the earliest such consumer's
				// step. (With a Drop on a sibling edge the oracle's surviving
				// per-message delivery serves both consumers; the envelope
				// must arrive just as early.)
				due := int32(comm.NoDue)
				if !e.noBatch {
					for _, w2 := range d.Out(v) {
						wt := base + sched.TaskID(w2)
						if assign[w2] == q && !e.doneStart[wt] && cur.Start[wt] < due {
							due = cur.Start[wt]
						}
					}
				}
				for ; copies > 0; copies-- {
					e.deliver(q, t, val, due)
				}
			}
		}
		e.acks <- a
	}
}

// applyCrashes kills the given processors: their completions since the
// last durable checkpoint are rolled back (replayed later), their cells
// with outstanding work move to the least-loaded survivors (via the
// shared Recovery core), and the recovery itself acts as a checkpoint for
// everyone else. It returns the new count of outstanding tasks.
func (e *Engine) applyCrashes(dying []int32, remaining int) int {
	for _, p := range dying {
		e.inj.NoteCrash()
		for _, t := range e.sinceCkpt[p] {
			if e.done[t] {
				e.done[t] = false
				remaining++
				e.report.TasksReplayed++
				e.col.Counter("faults.tasks_replayed").Inc()
			}
		}
		e.sinceCkpt[p] = nil
	}
	e.col.Counter("faults.crashes").Add(int64(len(dying)))
	for p := range e.sinceCkpt {
		e.sinceCkpt[p] = e.sinceCkpt[p][:0]
	}
	e.lastCkpt = e.globalStep
	e.rec.Kill(dying, e.done)
	if e.rec.NLive() > 0 {
		e.needRebuild = true
	}
	return remaining
}
