package procrun

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"sweepsched/internal/comm"
	"sweepsched/internal/sched"
)

// Wire protocol: every frame is
//
//	u32  payload length (little-endian, excludes this header)
//	u8   frame type
//	...  payload
//
// over a localhost TCP connection. Integers are little-endian; float64s
// travel as their IEEE-754 bit patterns, so fluxes arrive bit-exact —
// the whole bitwise-identical-to-serial guarantee rides on never
// formatting a float.
const (
	fHello     uint8 = iota + 1 // worker → orch: rank, resumed flag
	fSetup                      // orch → worker: problem spec + physics + checkpoint config
	fSetupOK                    // worker → orch: instance shape echo (n, k, m)
	fSweep                      // orch → worker: iteration number + scalar flux
	fEpoch                      // orch → worker: epoch schedule + durable state
	fStep                       // orch → worker: a window of barrier steps + the fluxes due at its first
	fAck                        // worker → orch: the window's completions / stall / error
	fOK                         // worker → orch: generic acknowledgement
	fHeartbeat                  // worker → orch: liveness (any time)
	fSnapReq                    // orch → worker: request metrics snapshot
	fSnapshot                   // worker → orch: JSON obs.Snapshot
	fBye                        // orch → worker: clean shutdown
	fFlux                       // orch → worker: one flux batch (NoBatch mode: single-item frames)
)

// maxFrame bounds a frame payload; anything larger indicates a corrupt
// or hostile stream.
const maxFrame = 1 << 28

// frameName labels a type for diagnostics.
func frameName(t uint8) string {
	switch t {
	case fHello:
		return "hello"
	case fSetup:
		return "setup"
	case fSetupOK:
		return "setup-ok"
	case fSweep:
		return "sweep"
	case fEpoch:
		return "epoch"
	case fStep:
		return "step"
	case fAck:
		return "ack"
	case fOK:
		return "ok"
	case fHeartbeat:
		return "heartbeat"
	case fSnapReq:
		return "snapshot-req"
	case fSnapshot:
		return "snapshot"
	case fBye:
		return "bye"
	case fFlux:
		return "flux"
	}
	return fmt.Sprintf("frame(%d)", t)
}

// wireConn is a framed connection with per-operation deadlines and a
// write mutex, so the worker's heartbeat goroutine can interleave with
// its frame replies without corrupting the stream. Both directions reuse
// grow-only scratch buffers — the hot exchange (a step frame and its ack
// every window) allocates nothing once the buffers are warm.
type wireConn struct {
	c  net.Conn
	wm sync.Mutex
	wb []byte  // write scratch (header + payload in one Write), under wm
	rb []byte  // read scratch; single reader per conn, reused every frame
	hb [5]byte // header scratch (a stack array would escape through io.Reader)
}

func newWireConn(c net.Conn) *wireConn { return &wireConn{c: c} }

func (w *wireConn) Close() error { return w.c.Close() }

// writeFrame sends one frame under the write deadline. The header and
// payload are assembled in the connection's retained scratch buffer and
// shipped in a single Write (one syscall, no per-frame allocation).
func (w *wireConn) writeFrame(typ uint8, payload []byte, timeout time.Duration) error {
	w.wm.Lock()
	defer w.wm.Unlock()
	if timeout > 0 {
		if err := w.c.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
			return err
		}
	}
	w.wb = w.wb[:0]
	w.wb = binary.LittleEndian.AppendUint32(w.wb, uint32(len(payload)))
	w.wb = append(w.wb, typ)
	w.wb = append(w.wb, payload...)
	_, err := w.c.Write(w.wb)
	return err
}

// readFrame receives one frame under the read deadline. The returned
// payload aliases the connection's scratch buffer: it is valid until the
// next readFrame on this conn, so callers must finish decoding (dec
// copies everything it returns) before reading again.
func (w *wireConn) readFrame(timeout time.Duration) (uint8, []byte, error) {
	if timeout > 0 {
		if err := w.c.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return 0, nil, err
		}
	}
	if _, err := io.ReadFull(w.c, w.hb[:]); err != nil {
		return 0, nil, err
	}
	size := binary.LittleEndian.Uint32(w.hb[:4])
	if size > maxFrame {
		return 0, nil, fmt.Errorf("procrun: frame of %d bytes exceeds limit", size)
	}
	if cap(w.rb) < int(size) {
		w.rb = make([]byte, size)
	}
	payload := w.rb[:size]
	if _, err := io.ReadFull(w.c, payload); err != nil {
		return 0, nil, err
	}
	return w.hb[4], payload, nil
}

// enc is an append-only payload builder.
type enc struct{ b []byte }

func (e *enc) u8(v uint8)    { e.b = append(e.b, v) }
func (e *enc) u32(v uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) i32(v int32)   { e.u32(uint32(v)) }
func (e *enc) u64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}
func (e *enc) f64s(vs []float64) {
	e.u32(uint32(len(vs)))
	for _, v := range vs {
		e.f64(v)
	}
}
func (e *enc) i32s(vs []int32) {
	e.u32(uint32(len(vs)))
	for _, v := range vs {
		e.i32(v)
	}
}
func (e *enc) tasks(ts []sched.TaskID) {
	e.u32(uint32(len(ts)))
	for _, t := range ts {
		e.i32(int32(t))
	}
}
func (e *enc) bools(bs []bool) {
	e.u32(uint32(len(bs)))
	bits := make([]byte, (len(bs)+7)/8)
	for i, b := range bs {
		if b {
			bits[i/8] |= 1 << (i % 8)
		}
	}
	e.b = append(e.b, bits...)
}

// dec is a cursor-based payload reader; the first failed read poisons it
// so callers check err once at the end.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated at byte %d of %d", ErrMalformedFrame, d.off, len(d.b))
	}
}

// end rejects bytes trailing the last decoded field, so a payload is
// accepted only in the exact layout its encoder writes.
func (d *dec) end() {
	if d.err == nil && d.off != len(d.b) {
		d.err = fmt.Errorf("%w: %d bytes trail the payload", ErrMalformedFrame, len(d.b)-d.off)
	}
}
func (d *dec) u8() uint8 {
	if d.err != nil || d.off+1 > len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}
func (d *dec) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}
func (d *dec) i32() int32 { return int32(d.u32()) }
func (d *dec) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }
func (d *dec) str() string {
	n := int(d.u32())
	if d.err != nil || n < 0 || d.off+n > len(d.b) {
		d.fail()
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}
func (d *dec) f64s() []float64 {
	n := int(d.u32())
	if d.err != nil || n < 0 || d.off+8*n > len(d.b) {
		d.fail()
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = d.f64()
	}
	return vs
}
func (d *dec) i32s() []int32 {
	n := int(d.u32())
	if d.err != nil || n < 0 || d.off+4*n > len(d.b) {
		d.fail()
		return nil
	}
	vs := make([]int32, n)
	for i := range vs {
		vs[i] = d.i32()
	}
	return vs
}
func (d *dec) tasks() []sched.TaskID {
	n := int(d.u32())
	if d.err != nil || n < 0 || d.off+4*n > len(d.b) {
		d.fail()
		return nil
	}
	ts := make([]sched.TaskID, n)
	for i := range ts {
		ts[i] = sched.TaskID(d.i32())
	}
	return ts
}
func (d *dec) bools() []bool {
	n := int(d.u32())
	nb := (n + 7) / 8
	if d.err != nil || n < 0 || d.off+nb > len(d.b) {
		d.fail()
		return nil
	}
	bs := make([]bool, n)
	for i := range bs {
		bs[i] = d.b[d.off+i/8]&(1<<(i%8)) != 0
	}
	d.off += nb
	return bs
}

// Flux-batch codec: the one layout every flux on the wire uses — the
// deliveries section of a step frame, the completions section of an ack,
// and the payload of a standalone fFlux frame (NoBatch mode). The section
// is
//
//	u32  item count
//	...  per item: i32 task, u64 IEEE-754 psi bits
//
// so comm.BatchHeaderBytes + comm.ItemBytes per item, little-endian.
var (
	// ErrTruncatedBatch reports a flux batch whose payload ends before the
	// item count it declares.
	ErrTruncatedBatch = errors.New("procrun: truncated flux batch")
	// ErrOversizedBatch reports a flux batch declaring more items than a
	// frame can carry, or carrying trailing bytes past its declared items.
	ErrOversizedBatch = errors.New("procrun: oversized flux batch")
)

// maxBatchItems is the largest item count a single frame can hold.
const maxBatchItems = (maxFrame - comm.BatchHeaderBytes) / comm.ItemBytes

// appendFluxBatch appends one flux-batch section to the payload builder.
func appendFluxBatch(e *enc, items []comm.Item) {
	e.u32(uint32(len(items)))
	for _, it := range items {
		e.i32(int32(it.Task))
		e.f64(it.Psi)
	}
}

// encodeFluxBatch builds a standalone flux-batch payload into buf
// (append-style: pass a retained buffer to avoid allocating).
func encodeFluxBatch(buf []byte, items []comm.Item) []byte {
	e := enc{b: buf[:0]}
	appendFluxBatch(&e, items)
	return e.b
}

// fluxItems decodes one flux-batch section into the reusable items
// slice. A count beyond frame capacity fails with ErrOversizedBatch and
// a section shorter than its count with ErrTruncatedBatch.
func (d *dec) fluxItems(into []comm.Item) []comm.Item {
	if d.err == nil && d.off+comm.BatchHeaderBytes > len(d.b) {
		d.err = fmt.Errorf("%w: %d bytes left for the item count", ErrTruncatedBatch, len(d.b)-d.off)
	}
	n := d.u32()
	switch {
	case d.err != nil:
		return nil
	case n > maxBatchItems:
		d.err = fmt.Errorf("%w: %d items exceeds frame capacity %d", ErrOversizedBatch, n, maxBatchItems)
		return nil
	case d.off+comm.ItemBytes*int(n) > len(d.b):
		d.err = fmt.Errorf("%w: %d items need %d bytes, have %d", ErrTruncatedBatch, n, comm.ItemBytes*int(n), len(d.b)-d.off)
		return nil
	}
	items := into[:0]
	for i := uint32(0); i < n; i++ {
		t := sched.TaskID(d.i32())
		items = append(items, comm.Item{Task: t, Psi: d.f64()})
	}
	return items
}

// decodeFluxBatch decodes a standalone flux-batch payload, rejecting
// malformed frames with the typed errors above: decode∘encode is the
// identity, a short payload is ErrTruncatedBatch, and a declared count
// beyond frame capacity — or bytes trailing the declared items — is
// ErrOversizedBatch. into is reused when it has capacity.
func decodeFluxBatch(b []byte, into []comm.Item) ([]comm.Item, error) {
	d := dec{b: b}
	items := d.fluxItems(into)
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(b) {
		return nil, fmt.Errorf("%w: %d bytes trail the %d declared items", ErrOversizedBatch, len(b)-d.off, len(items))
	}
	return items, nil
}

// Step windows. One fStep frame opens a window of consecutive barrier
// steps [local, local+window) of the current epoch, and one fAck answers
// it:
//
//	fStep: i32 local, i32 global, i32 window, u8 checkpoint, flux section
//	fAck:  i32 ran, flux section (completions), u8 stalled,
//	       i32 stall task, i32 stall miss, str error
//
// The flux section of fStep carries the envelopes due at the window's
// first step; the checkpoint flag asks for a durable shard before that
// step runs. The worker runs the window's steps in order and stops after
// the first step on which a task stalls or fails; ran counts the steps
// it ran, that one included, and the completions come in step order.
var (
	// ErrMalformedFrame reports a frame whose fixed fields end early or
	// that carries bytes past its last field.
	ErrMalformedFrame = errors.New("procrun: malformed frame")
	// ErrBadWindow reports a step window that does not fit the epoch
	// (empty, negative or past the makespan), a flux for a task the
	// instance does not have, or an ack that does not fit the window it
	// answers.
	ErrBadWindow = errors.New("procrun: frame does not fit the step window")
)

// stepFrame is one decoded fStep payload.
type stepFrame struct {
	local, global, window int32
	ckpt                  bool
	deliv                 []comm.Item
}

// appendStep appends an fStep payload to the builder.
func appendStep(e *enc, f *stepFrame) {
	e.i32(f.local)
	e.i32(f.global)
	e.i32(f.window)
	if f.ckpt {
		e.u8(1)
	} else {
		e.u8(0)
	}
	appendFluxBatch(e, f.deliv)
}

// decodeStep decodes an fStep payload, reusing into for the deliveries.
// A checkpoint flag other than 0 or 1 is malformed, so every accepted
// payload re-encodes to itself.
func decodeStep(b []byte, into []comm.Item) (stepFrame, error) {
	d := dec{b: b}
	var f stepFrame
	f.local, f.global, f.window = d.i32(), d.i32(), d.i32()
	switch c := d.u8(); {
	case d.err != nil:
	case c > 1:
		d.err = fmt.Errorf("%w: checkpoint flag %d", ErrMalformedFrame, c)
	default:
		f.ckpt = c == 1
	}
	f.deliv = d.fluxItems(into)
	d.end()
	return f, d.err
}

// checkWindow is the worker's guard on a decoded step frame: the window
// is non-empty, lies inside the epoch's makespan, and every delivery
// names a task of the instance.
func checkWindow(f *stepFrame, makespan int32, ntasks int) error {
	if f.local < 0 || f.window < 1 || f.local > makespan-f.window {
		return fmt.Errorf("%w: steps [%d, %d+%d) in an epoch of %d", ErrBadWindow, f.local, f.local, f.window, makespan)
	}
	return checkTasks(f.deliv, ntasks)
}

// checkTasks rejects a flux for a task the instance does not have.
func checkTasks(items []comm.Item, ntasks int) error {
	for _, it := range items {
		if it.Task < 0 || int(it.Task) >= ntasks {
			return fmt.Errorf("%w: flux for task %d of %d", ErrBadWindow, it.Task, ntasks)
		}
	}
	return nil
}

// stepAck is one decoded fAck payload.
type stepAck struct {
	ran                  int32
	completed            []comm.Item
	stalled              bool
	stallTask, stallMiss sched.TaskID
	errMsg               string
}

// stopped reports whether the worker ended the window early.
func (a *stepAck) stopped() bool { return a.stalled || a.errMsg != "" }

// appendAck appends an fAck payload to the builder.
func appendAck(e *enc, a *stepAck) {
	e.i32(a.ran)
	appendFluxBatch(e, a.completed)
	if a.stalled {
		e.u8(1)
	} else {
		e.u8(0)
	}
	e.i32(int32(a.stallTask))
	e.i32(int32(a.stallMiss))
	e.str(a.errMsg)
}

// decodeAck decodes an fAck payload into a, reusing into for the
// completions (the decoded slice aliases it).
func decodeAck(b []byte, into []comm.Item, a *stepAck) error {
	d := dec{b: b}
	a.ran = d.i32()
	a.completed = d.fluxItems(into)
	switch st := d.u8(); {
	case d.err != nil:
	case st > 1:
		d.err = fmt.Errorf("%w: stall flag %d", ErrMalformedFrame, st)
	default:
		a.stalled = st == 1
	}
	a.stallTask = sched.TaskID(d.i32())
	a.stallMiss = sched.TaskID(d.i32())
	a.errMsg = d.str()
	d.end()
	return d.err
}

// checkAck is the orchestrator's guard on a decoded ack for the window
// [local, local+window) sent to rank: ran lies in [1, window] and covers
// the whole window unless the worker stopped; every completion is a task
// of rank (task t is cell t mod len(assign)) that starts inside the steps
// it ran, in step order; and a stall names a task of its last step. The
// orchestrator indexes its arrays with these tasks only after this check.
func checkAck(a *stepAck, local, window, rank int32, start []int32, assign sched.Assignment) error {
	if a.ran < 1 || a.ran > window || (a.ran < window && !a.stopped()) {
		return fmt.Errorf("%w: ran %d steps of a %d-step window (stopped: %v)", ErrBadWindow, a.ran, window, a.stopped())
	}
	n := sched.TaskID(len(assign))
	inTask := func(t sched.TaskID) bool { return t >= 0 && int(t) < len(start) }
	last := local
	for _, c := range a.completed {
		if !inTask(c.Task) || assign[c.Task%n] != rank {
			return fmt.Errorf("%w: completion of task %d, not on rank %d", ErrBadWindow, c.Task, rank)
		}
		st := start[c.Task]
		if st < last || st >= local+a.ran {
			return fmt.Errorf("%w: task %d at step %d, out of order in steps [%d, %d)", ErrBadWindow, c.Task, st, local, local+a.ran)
		}
		last = st
	}
	if a.stalled && (!inTask(a.stallTask) || start[a.stallTask] != local+a.ran-1) {
		return fmt.Errorf("%w: stall on task %d, not in the last step run", ErrBadWindow, a.stallTask)
	}
	return nil
}
