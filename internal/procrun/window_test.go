package procrun

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"sweepsched/internal/comm"
	"sweepsched/internal/core"
	"sweepsched/internal/obs"
	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
	"sweepsched/internal/transport"
)

// TestProcRunWindowsCutSyncs pins what step windows buy on a fault-free
// block schedule, where most steps read only local flux: the
// orchestrator makes fewer round trips (procrun.syncs) than there are
// schedule steps (procrun.steps), and at most one per envelope flush,
// periodic checkpoint or epoch start — every other step runs inside a
// window. NoBatch runs the same loop with one-step windows, one round
// trip per step, and books the same steps and rounds; both stay bitwise
// equal to the serial solve.
func TestProcRunWindowsCutSyncs(t *testing.T) {
	spec := ProblemSpec{Family: "tetonly", Scale: 0.002, MeshSeed: 7, K: 4, M: 2}
	inst, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	const blockCells = 16
	part := make([]int32, inst.N())
	for v := range part {
		part[v] = int32(v / blockCells)
	}
	r := rng.New(43)
	assign := sched.BlockAssignment(part, (inst.N()+blockCells-1)/blockCells, spec.M, r)
	s, err := core.RandomDelayPrioritiesWithAssignment(inst, assign, r)
	if err != nil {
		t.Fatal(err)
	}
	cfg := transport.Config{SigmaT: 1, SigmaS: 0.5, Source: 1, Tol: 1e-300, MaxIters: 2}
	serial, err := transport.Solve(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		res          *RunResult
		steps, syncs int64
	}
	runs := make([]run, 2)
	for i, noBatch := range []bool{false, true} {
		c := cfg
		c.NoBatch = noBatch
		col := obs.New()
		res, err := Run(context.Background(), s, spec, c, nil, Options{CkptDir: t.TempDir(), CkptEvery: 64, Collector: col})
		if err != nil {
			t.Fatal(err)
		}
		if i, ok := bitwiseEqual(res.Phi, serial.Phi); !ok {
			t.Fatalf("nobatch=%v: flux differs from serial at cell %d", noBatch, i)
		}
		runs[i] = run{res, col.Counter("procrun.steps").Value(), col.Counter("procrun.syncs").Value()}
	}
	b, p := runs[0], runs[1]
	ckpts := b.res.Merged.CounterValue("proc.checkpoints") / int64(spec.M)
	t.Logf("steps=%d syncs=%d (NoBatch %d) envelopes=%d checkpoints=%d epochs=%d",
		b.steps, b.syncs, p.syncs, b.res.Comm.Batches, ckpts, b.res.Report.Epochs)
	if b.steps != int64(b.res.Report.StepsExecuted) || b.steps == 0 {
		t.Fatalf("procrun.steps = %d, report says %d steps", b.steps, b.res.Report.StepsExecuted)
	}
	if b.syncs >= b.steps {
		t.Fatalf("%d round trips for %d steps: windows never span a step", b.syncs, b.steps)
	}
	if p.syncs != p.steps {
		t.Fatalf("NoBatch made %d round trips for %d steps, want one per step", p.syncs, p.steps)
	}
	if limit := b.res.Comm.Batches + ckpts + int64(b.res.Report.Epochs); b.syncs > limit {
		t.Fatalf("%d round trips exceed envelopes+checkpoints+epochs = %d", b.syncs, limit)
	}
	if p.steps != b.steps || p.res.Comm.Rounds != b.res.Comm.Rounds {
		t.Fatalf("NoBatch books steps=%d rounds=%d, batched steps=%d rounds=%d",
			p.steps, p.res.Comm.Rounds, b.steps, b.res.Comm.Rounds)
	}
}

// typedFrameError reports whether err is one of the wire layer's typed
// rejections.
func typedFrameError(err error) bool {
	for _, want := range []error{ErrMalformedFrame, ErrBadWindow, ErrTruncatedBatch, ErrOversizedBatch} {
		if errors.Is(err, want) {
			return true
		}
	}
	return false
}

// fuzzWorker is a worker with testSpec's schedule installed as its
// epoch, driven through its frame handlers without a connection.
func fuzzWorker(f *testing.F) (*worker, *sched.Schedule) {
	spec := testSpec()
	s, cfg := testSetup(f, spec)
	nt := s.Inst.NTasks()
	w := &worker{rank: 1, inst: s.Inst, cfg: cfg, ckptDir: f.TempDir(), col: obs.New()}
	w.ctr = comm.NewCounters(w.col)
	var e enc
	e.i32(1)
	e.f64s(make([]float64, s.Inst.N()))
	if _, err := w.onSweep(e.b); err != nil {
		f.Fatal(err)
	}
	e = enc{}
	e.i32(1)
	e.u32(uint32(s.Makespan))
	e.i32s(s.Assign)
	e.i32s(s.Start)
	e.bools(make([]bool, nt))
	e.f64s(make([]float64, nt))
	if _, err := w.onEpoch(e.b); err != nil {
		f.Fatal(err)
	}
	return w, s
}

// FuzzStepFrame fuzzes the step-window frames from both ends. Arbitrary
// bytes decoded as an fStep or fAck payload fail with a typed error or
// re-encode to themselves. A worker handed any fStep payload — arbitrary
// bytes, or a well-formed frame for the fuzzed window cut short
// anywhere — either rejects it with a typed error (a zero, negative or
// past-the-makespan window is ErrBadWindow, a truncated flux section
// ErrTruncatedBatch) or answers with an ack the orchestrator's checkAck
// accepts; and checkAck itself never indexes out of range on an
// arbitrary ack.
func FuzzStepFrame(f *testing.F) {
	w, s := fuzzWorker(f)
	makespan := int32(s.Makespan)
	step := func(local, window int32, items ...comm.Item) []byte {
		var e enc
		appendStep(&e, &stepFrame{local: local, global: local, window: window, deliv: items})
		return e.b
	}
	f.Add(step(0, 1), int32(0), int32(1), uint16(0xffff))
	f.Add(step(0, makespan, comm.Item{Task: 3, Psi: 0.5}), int32(0), makespan, uint16(0xffff))
	f.Add(step(2, 0), int32(2), int32(0), uint16(0xffff))
	f.Add(step(-1, 3), int32(-1), int32(3), uint16(0xffff))
	f.Add(step(makespan-1, 2), makespan-1, int32(2), uint16(0xffff))
	f.Add(step(1, 4, comm.Item{Task: 1, Psi: 1}, comm.Item{Task: 2, Psi: 2})[:20], int32(1), int32(4), uint16(20))
	var ack enc
	appendAck(&ack, &stepAck{ran: 1, completed: []comm.Item{{Task: 5, Psi: 1}}, stallTask: -1, stallMiss: -1})
	f.Add(ack.b, int32(0), int32(2), uint16(7))
	f.Fuzz(func(t *testing.T, b []byte, local, window int32, cut uint16) {
		w.logTasks, w.logPsi = w.logTasks[:0], w.logPsi[:0]
		run := func(payload []byte) {
			if _, err := w.onStep(payload); err != nil {
				if !typedFrameError(err) {
					t.Fatalf("untyped worker rejection: %v", err)
				}
				return
			}
			sf, err := decodeStep(payload, nil)
			if err != nil {
				t.Fatalf("worker accepted a payload that does not decode: %v", err)
			}
			var a stepAck
			if err := decodeAck(w.ackb, nil, &a); err != nil {
				t.Fatalf("worker's own ack does not decode: %v", err)
			}
			if err := checkAck(&a, sf.local, sf.window, w.rank, s.Start, s.Assign); err != nil {
				t.Fatalf("worker's ack for [%d, %d+%d) fails the orchestrator's guard: %v", sf.local, sf.local, sf.window, err)
			}
		}

		// Arbitrary bytes, as a step frame and as an ack.
		if sf, err := decodeStep(b, nil); err != nil {
			if !typedFrameError(err) {
				t.Fatalf("untyped step rejection: %v", err)
			}
		} else {
			var e enc
			appendStep(&e, &sf)
			if !bytes.Equal(e.b, b) {
				t.Fatalf("step decode∘encode is not the identity:\nin:  %x\nout: %x", b, e.b)
			}
		}
		run(b)
		var a stepAck
		if err := decodeAck(b, nil, &a); err != nil {
			if !typedFrameError(err) {
				t.Fatalf("untyped ack rejection: %v", err)
			}
		} else {
			var e enc
			appendAck(&e, &a)
			if !bytes.Equal(e.b, b) {
				t.Fatalf("ack decode∘encode is not the identity:\nin:  %x\nout: %x", b, e.b)
			}
			if err := checkAck(&a, local, window, w.rank, s.Start, s.Assign); err != nil && !errors.Is(err, ErrBadWindow) {
				t.Fatalf("untyped ack guard rejection: %v", err)
			}
		}

		// A well-formed frame for the fuzzed window, cut at the fuzzed
		// length.
		full := step(local, window, comm.Item{Task: sched.TaskID(cut % 97), Psi: 1}, comm.Item{Task: 0, Psi: -1})
		k := min(int(cut), len(full))
		_, err := decodeStep(full[:k], nil)
		switch {
		case k < len(full) && err == nil:
			t.Fatalf("frame cut to %d of %d bytes decoded", k, len(full))
		case k == len(full) && err != nil:
			t.Fatalf("whole frame rejected: %v", err)
		}
		if k < len(full) && k >= 13 && !errors.Is(err, ErrTruncatedBatch) {
			t.Fatalf("truncated flux section gave %v, want ErrTruncatedBatch", err)
		}
		bad := local < 0 || window < 1 || int64(local)+int64(window) > int64(makespan)
		_, err = w.onStep(full[:k])
		if k == len(full) && bad && !errors.Is(err, ErrBadWindow) {
			t.Fatalf("window [%d, %d+%d) of a %d-step epoch gave %v, want ErrBadWindow", local, local, window, makespan, err)
		}
		run(full[:k])
	})
}
