package procrun

import (
	"fmt"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sweepsched/internal/comm"
	"sweepsched/internal/faults"
	"sweepsched/internal/obs"
	"sweepsched/internal/sched"
	"sweepsched/internal/transport"
)

// EnvWorker is the re-exec hook: when set (to "addr|rank") the process
// is a sweep worker, not a CLI. Binaries that can host workers call
// MaybeWorker first thing in main (or TestMain), so the orchestrator can
// spawn m copies of the current executable and turn them into workers.
const EnvWorker = "SWEEPSCHED_PROCRUN_WORKER"

// MaybeWorker turns the process into a sweep worker if EnvWorker is set,
// never returning in that case (the process exits when the orchestrator
// says goodbye, the connection is lost beyond the reconnect budget, or a
// fatal error occurs). A no-op otherwise.
func MaybeWorker() {
	v := os.Getenv(EnvWorker)
	if v == "" {
		return
	}
	os.Exit(RunWorker(v))
}

// RunWorker runs the worker loop for an "addr|rank" assignment and
// returns the process exit code. Exposed for cmd/sweepworker.
func RunWorker(assignment string) int {
	parts := strings.Split(assignment, "|")
	if len(parts) != 2 {
		fmt.Fprintf(os.Stderr, "sweepworker: malformed %s=%q (want addr|rank)\n", EnvWorker, assignment)
		return 2
	}
	rank64, err := strconv.ParseInt(parts[1], 10, 32)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweepworker: bad rank %q: %v\n", parts[1], err)
		return 2
	}
	w := &worker{addr: parts[0], rank: int32(rank64), col: obs.New()}
	w.ctr = comm.NewCounters(w.col)
	if err := w.run(); err != nil {
		fmt.Fprintf(os.Stderr, "sweepworker[%d]: %v\n", w.rank, err)
		return 1
	}
	return 0
}

// worker is one sweep processor living in its own OS process. It is a
// pure frame-reactor: all control (sweeps, epochs, barrier steps,
// checkpoint triggers, shutdown) comes from the orchestrator; the worker
// owns only its task arithmetic, its durable checkpoint shards, and its
// reconnect loop.
type worker struct {
	addr string
	rank int32

	mu   sync.Mutex // guards conn swaps (heartbeat goroutine vs reconnect)
	conn *wireConn

	inst        *sched.Instance
	cfg         transport.Config
	ckptDir     string
	hbInterval  time.Duration
	readTimeout time.Duration
	backoff     Backoff
	col         *obs.Collector
	ctr         comm.Counters // receive-side comm.* accounting (deterministic per plan)

	fluxBuf []comm.Item // decode scratch for flux sections, reused per frame
	compBuf []comm.Item // this window's completions, reused per window
	ackb    []byte      // ack payload builder, reused per window

	// sweep state (reset by fSweep)
	iter     int32
	phi      []float64
	compute  func(sched.TaskID, float64) float64
	logTasks []sched.TaskID // cumulative completions this sweep, in completion order
	logPsi   []float64

	// epoch state (reset by fEpoch); the per-task slices are dense over
	// the instance's tasks and reused across epochs
	epoch     int32
	makespan  int32
	assign    sched.Assignment
	start     []int32 // nil until the first epoch
	groups    sched.StepGroups
	mine      []sched.TaskID // this rank's not-done tasks in (start, id) order
	doneStart []bool
	psi       []float64
	recv      []float64 // cross fluxes received this epoch, by producing task
	have      []bool    // recv[t] holds a received flux
	localDone []bool
}

func (w *worker) current() *wireConn {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.conn
}

func (w *worker) setConn(c *wireConn) {
	w.mu.Lock()
	old := w.conn
	w.conn = c
	w.mu.Unlock()
	if old != nil {
		old.Close()
	}
}

// connect dials the orchestrator and introduces itself. resumed marks a
// reconnection after a severed link, so the orchestrator re-binds the
// rank instead of treating it as a fresh arrival.
func (w *worker) connect(resumed bool) error {
	c, err := net.Dial("tcp", w.addr)
	if err != nil {
		return err
	}
	wc := newWireConn(c)
	var e enc
	e.i32(w.rank)
	if resumed {
		e.u8(1)
	} else {
		e.u8(0)
	}
	if err := wc.writeFrame(fHello, e.b, 5*time.Second); err != nil {
		wc.Close()
		return err
	}
	w.setConn(wc)
	return nil
}

// reconnect runs the bounded backoff loop after a lost connection.
func (w *worker) reconnect() error {
	delays := w.backoff.delays(w.rank)
	var lastErr error
	for _, d := range delays {
		time.Sleep(d)
		if lastErr = w.connect(true); lastErr == nil {
			w.col.Counter("proc.reconnects").Inc()
			return nil
		}
	}
	return fmt.Errorf("procrun: rank %d: reconnect budget exhausted (%d attempts): %w",
		w.rank, len(delays), lastErr)
}

// run is the worker main loop: frames in, replies out, reconnect on a
// lost link, exit on fBye.
func (w *worker) run() error {
	if err := w.connect(false); err != nil {
		return fmt.Errorf("procrun: rank %d cannot reach orchestrator at %s: %w", w.rank, w.addr, err)
	}
	defer func() {
		if c := w.current(); c != nil {
			c.Close()
		}
	}()
	hbStop := make(chan struct{})
	defer close(hbStop)

	readTimeout := 30 * time.Second // until fSetup provides the real one
	for {
		conn := w.current()
		typ, payload, err := conn.readFrame(readTimeout)
		if err != nil {
			// Lost or severed link: bounded reconnect, then resume the
			// frame loop — all sweep/epoch state survives in this process.
			if rerr := w.reconnect(); rerr != nil {
				return rerr
			}
			continue
		}
		var reply func() error
		switch typ {
		case fSetup:
			reply, err = w.onSetup(payload, hbStop)
			if err == nil {
				readTimeout = w.readTimeout
			}
		case fSweep:
			reply, err = w.onSweep(payload)
		case fEpoch:
			reply, err = w.onEpoch(payload)
		case fFlux:
			reply, err = w.onFlux(payload)
		case fStep:
			reply, err = w.onStep(payload)
		case fSnapReq:
			reply, err = w.onSnapshot()
		case fBye:
			return nil
		default:
			err = fmt.Errorf("procrun: rank %d: unexpected %s frame", w.rank, frameName(typ))
		}
		if err != nil {
			// Protocol/state errors are fatal: report upstream best-effort
			// and die loudly rather than desynchronize the barrier.
			var e enc
			appendAck(&e, &stepAck{stallTask: -1, stallMiss: -1, errMsg: err.Error()})
			w.current().writeFrame(fAck, e.b, 2*time.Second)
			return err
		}
		if rerr := reply(); rerr != nil {
			// A failed reply means the link dropped between read and
			// write; reconnect and let the orchestrator re-drive.
			if rcerr := w.reconnect(); rcerr != nil {
				return rcerr
			}
		}
	}
}

// onSetup decodes the problem spec, rebuilds the instance locally, and
// starts the heartbeat.
func (w *worker) onSetup(payload []byte, hbStop <-chan struct{}) (func() error, error) {
	d := dec{b: payload}
	spec := ProblemSpec{
		Family:   d.str(),
		Scale:    d.f64(),
		MeshSeed: d.u64(),
		K:        int(d.u32()),
		M:        int(d.u32()),
	}
	w.cfg = transport.Config{
		SigmaT: d.f64(),
		SigmaS: d.f64(),
		Source: d.f64(),
	}
	if sf := d.f64s(); len(sf) > 0 {
		w.cfg.SourceField = sf
	}
	w.ckptDir = d.str()
	w.hbInterval = time.Duration(d.u32()) * time.Millisecond
	w.readTimeout = time.Duration(d.u32()) * time.Millisecond
	w.backoff = Backoff{
		Base:     time.Duration(d.u32()) * time.Millisecond,
		Max:      time.Duration(d.u32()) * time.Millisecond,
		Factor:   d.f64(),
		Attempts: int(d.u32()),
		Seed:     d.u64(),
	}.withDefaults()
	if d.err != nil {
		return nil, d.err
	}
	inst, err := spec.Build()
	if err != nil {
		return nil, err
	}
	w.inst = inst
	if w.hbInterval > 0 {
		go w.heartbeat(hbStop)
	}
	return func() error {
		var e enc
		e.u32(uint32(inst.N()))
		e.u32(uint32(inst.K()))
		e.u32(uint32(inst.M))
		return w.current().writeFrame(fSetupOK, e.b, 5*time.Second)
	}, nil
}

// heartbeat keeps the liveness channel warm from a dedicated goroutine;
// the wireConn write mutex serializes it against frame replies. Send
// errors are ignored — the main loop owns reconnection.
func (w *worker) heartbeat(stop <-chan struct{}) {
	tick := time.NewTicker(w.hbInterval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			w.current().writeFrame(fHeartbeat, nil, w.hbInterval)
		}
	}
}

// onSweep begins a source iteration: fresh scalar flux, empty completion
// log.
func (w *worker) onSweep(payload []byte) (func() error, error) {
	d := dec{b: payload}
	w.iter = d.i32()
	w.phi = d.f64s()
	if d.err != nil {
		return nil, d.err
	}
	if w.inst == nil {
		return nil, fmt.Errorf("procrun: sweep before setup")
	}
	if len(w.phi) != w.inst.N() {
		return nil, fmt.Errorf("procrun: sweep phi covers %d of %d cells", len(w.phi), w.inst.N())
	}
	w.compute = transport.CellBalance(w.inst, w.cfg, w.phi)
	w.logTasks = w.logTasks[:0]
	w.logPsi = w.logPsi[:0]
	w.col.Counter("proc.sweeps").Inc()
	return w.okReply(), nil
}

// onEpoch installs an epoch's schedule and durable state: assignment,
// start steps, the done set, and the checkpointed fluxes the done tasks
// carry.
func (w *worker) onEpoch(payload []byte) (func() error, error) {
	d := dec{b: payload}
	w.epoch = d.i32()
	makespan := d.u32()
	assign := d.i32s()
	start := d.i32s()
	done := d.bools()
	psi := d.f64s()
	if d.err != nil {
		return nil, d.err
	}
	if w.inst == nil {
		return nil, fmt.Errorf("procrun: epoch before setup")
	}
	// The task grouping keeps one counter per step, so a makespan is
	// held to what the largest frame could carry.
	nt := w.inst.NTasks()
	if len(assign) != w.inst.N() || len(start) != nt || len(done) != nt || len(psi) != nt || makespan > maxFrame/4 {
		return nil, fmt.Errorf("procrun: epoch frame shapes do not match the instance")
	}
	w.assign = sched.Assignment(assign)
	s := &sched.Schedule{Inst: w.inst, Assign: w.assign, Start: start, Makespan: int(makespan)}
	if err := w.groups.Group(s, w.assign, done); err != nil {
		return nil, err
	}
	w.mine = w.groups.Proc(w.rank)
	w.makespan = int32(makespan)
	w.start = start
	w.doneStart = done
	w.psi = psi
	if len(w.recv) != nt {
		w.recv = make([]float64, nt)
		w.have = make([]bool, nt)
		w.localDone = make([]bool, nt)
	} else {
		clear(w.have)
		clear(w.localDone)
	}
	w.col.Counter("proc.epochs").Inc()
	return w.okReply(), nil
}

// receive merges decoded fluxes into the epoch's receive set.
func (w *worker) receive(items []comm.Item) {
	for _, it := range items {
		w.recv[it.Task] = it.Psi
		w.have[it.Task] = true
	}
}

// onFlux merges one standalone flux frame (the NoBatch interconnect's
// per-message transmissions) into the receive set. No reply: the step
// frame that follows carries the ack for the whole window.
func (w *worker) onFlux(payload []byte) (func() error, error) {
	if w.start == nil {
		return nil, fmt.Errorf("procrun: flux before epoch")
	}
	items, err := decodeFluxBatch(payload, w.fluxBuf)
	if err != nil {
		return nil, err
	}
	if items != nil {
		w.fluxBuf = items
	}
	if err := checkTasks(items, len(w.recv)); err != nil {
		return nil, err
	}
	w.receive(items)
	w.ctr.Logical(len(items))
	w.ctr.PerMessage(len(items))
	return func() error { return nil }, nil
}

// onStep runs one window of barrier steps: durable checkpoint if flagged
// (before executing, so the shard covers completions strictly before
// the window), the frame's flux envelope into the receive set, then the
// window's steps in order until the first stall or error.
func (w *worker) onStep(payload []byte) (func() error, error) {
	f, err := decodeStep(payload, w.fluxBuf)
	if err != nil {
		return nil, err
	}
	if f.deliv != nil {
		w.fluxBuf = f.deliv
	}
	if w.start == nil || w.compute == nil {
		return nil, fmt.Errorf("procrun: step before epoch")
	}
	if err := checkWindow(&f, w.makespan, len(w.recv)); err != nil {
		return nil, err
	}
	if f.ckpt {
		ck := &faults.Checkpoint{
			Rank: w.rank, Iter: w.iter, Epoch: w.epoch, Step: f.global,
			Tasks: w.logTasks, Psi: w.logPsi,
		}
		if _, err := faults.WriteDurable(w.ckptDir, ck); err != nil {
			return nil, fmt.Errorf("procrun: rank %d checkpoint: %w", w.rank, err)
		}
		w.col.Counter("proc.checkpoints").Inc()
	}
	w.receive(f.deliv)
	if n := len(f.deliv); n > 0 {
		w.ctr.Logical(n)
		w.ctr.Envelope(n)
	}

	a := stepAck{completed: w.compBuf[:0], stallTask: -1, stallMiss: -1}
	inst := w.inst
	n := int32(inst.N())
	// The window's first task: a resent window starts over at its step.
	next := sort.Search(len(w.mine), func(i int) bool { return w.start[w.mine[i]] >= f.local })
	for ls := f.local; ls < f.local+f.window && !a.stopped(); ls++ {
		a.ran++
		w.col.Counter("proc.steps").Inc()
	run:
		for ; next < len(w.mine) && w.start[w.mine[next]] == ls; next++ {
			t := w.mine[next]
			v, i := inst.Split(t)
			dag := inst.DAGs[i]
			base := sched.TaskID(int32(i) * n)
			inflow := 0.0
			preds := dag.In(v)
			for _, u := range preds {
				ut := base + sched.TaskID(u)
				switch {
				case w.doneStart[ut]:
					inflow += w.psi[ut] // durable value from an earlier epoch
				case w.assign[u] == w.rank:
					if !w.localDone[ut] {
						a.errMsg = fmt.Sprintf("procrun: rank %d task %d at step %d: local input %d not done", w.rank, t, f.global+ls-f.local, ut)
						break run
					}
					inflow += w.psi[ut]
				default:
					if !w.have[ut] {
						a.stalled, a.stallTask, a.stallMiss = true, t, ut
						break run
					}
					inflow += w.recv[ut]
				}
			}
			if len(preds) > 0 {
				inflow /= float64(len(preds))
			}
			val := w.compute(t, inflow)
			w.psi[t] = val
			w.localDone[t] = true
			w.logTasks = append(w.logTasks, t)
			w.logPsi = append(w.logPsi, val)
			a.completed = append(a.completed, comm.Item{Task: t, Psi: val})
			w.col.Counter("proc.tasks").Inc()
		}
	}
	w.compBuf = a.completed

	e := enc{b: w.ackb[:0]}
	appendAck(&e, &a)
	w.ackb = e.b
	return func() error { return w.current().writeFrame(fAck, e.b, 5*time.Second) }, nil
}

// onSnapshot ships the worker's metrics snapshot for the orchestrator's
// merged report.
func (w *worker) onSnapshot() (func() error, error) {
	var buf strings.Builder
	if err := w.col.Snapshot().WriteJSON(&buf); err != nil {
		return nil, err
	}
	b := []byte(buf.String())
	return func() error { return w.current().writeFrame(fSnapshot, b, 5*time.Second) }, nil
}

func (w *worker) okReply() func() error {
	return func() error { return w.current().writeFrame(fOK, nil, 5*time.Second) }
}
