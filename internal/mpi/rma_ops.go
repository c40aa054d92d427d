package mpi

import (
	"encoding/binary"
	"math"

	"pperf/internal/sim"
)

// RMA data transfers. Argument positions in the fired probes mirror C MPI
// exactly, because the MDL metric definitions of Fig 2 read them by index:
// MPI_Put(origin_addr, origin_count, origin_datatype, target_rank,
// target_disp, target_count, target_datatype, win) — count is $arg[1], the
// datatype $arg[2], and the window $arg[7]. MPI_Accumulate adds op before
// win, putting the window at $arg[8].

// rmaOp is one RMA data transfer, in flight from its issue to its completion
// and itself the scheduled event of that completion (sim.Target), as a
// message is of its arrival. target is a comm rank; data is Put's and
// Accumulate's copy of the origin buffer, or Get's origin buffer to fill.
type rmaOp struct {
	win                 *Win // the origin's handle
	kind                string
	target, disp, bytes int
	data                []byte
	op                  Op
	dt                  Datatype
	at                  sim.Time
	done                bool
}

// issue schedules the asynchronous data movement of op (bytes on the wire,
// for the trace) and registers it in the origin's epoch op list. The op comes
// from the window's spare list when there is one.
func (w *Win) issue(op rmaOp) {
	r := w.r
	ws := w.shared
	target := ws.comm.local[op.target]
	op.win = w
	op.at = r.Now().Add(ws.w.MsgTime(r.Now(), r.node, target.node, 0))
	if tr := ws.w.Tracer; tr != nil {
		// Origin→target data movement: a flow for the exporters, but not a
		// wait edge — RMA completion blocking happens at the epoch calls.
		ws.w.traceEdge("rma", r, target, r.Now(), op.at, 0, op.bytes, tr.NewFlow(), false)
	}
	var o *rmaOp
	if n := len(w.spare); n > 0 {
		o, w.spare = w.spare[n-1], w.spare[:n-1]
	} else {
		o = new(rmaOp)
	}
	*o = op
	w.ops = append(w.ops, o)
	ws.w.Eng.Schedule(o.at, o)
}

// Fire completes the transfer at its target's window and wakes the origin.
// Accumulate sums elementwise for Double and Int and otherwise replaces, as
// Put does.
func (o *rmaOp) Fire() {
	buf, data, disp := o.win.shared.buf[o.target], o.data, o.disp
	sum := o.kind == "MPI_Accumulate" && o.op == OpSum
	switch {
	case o.kind == "MPI_Get":
		if data != nil && disp < len(buf) {
			copy(data, buf[disp:])
		}
	case data == nil && o.kind == "MPI_Put":
		// Synthetic payload: mark the touched region, doubling per copy.
		if end := min(disp+o.bytes, len(buf)); disp < end {
			buf[disp] = 0xAA
			for i := disp + 1; i < end; i += copy(buf[i:end], buf[disp:i]) {
			}
		}
	case data == nil || disp >= len(buf):
	case sum && o.dt == Double:
		for i := 0; i+8 <= len(data) && disp+i+8 <= len(buf); i += 8 {
			cur := math.Float64frombits(binary.LittleEndian.Uint64(buf[disp+i:]))
			add := math.Float64frombits(binary.LittleEndian.Uint64(data[i:]))
			binary.LittleEndian.PutUint64(buf[disp+i:], math.Float64bits(cur+add))
		}
	case sum && o.dt == Int:
		for i := 0; i+4 <= len(data) && disp+i+4 <= len(buf); i += 4 {
			cur := binary.LittleEndian.Uint32(buf[disp+i:])
			add := binary.LittleEndian.Uint32(data[i:])
			binary.LittleEndian.PutUint32(buf[disp+i:], cur+add)
		}
	default:
		copy(buf[disp:], data)
	}
	o.done = true
	o.win.r.wakeAt(o.at)
}

// chargeOrigin computes the wire size of count elements of dt and charges
// the origin's per-op CPU cost plus the bandwidth term (the origin is busy
// injecting the data; the latency part completes asynchronously).
func (w *Win) chargeOrigin(count int, dt Datatype) int {
	r := w.r
	cost := &w.shared.w.Impl.Cost
	bytes := count * dt.Size()
	r.SystemCompute(cost.RMAOverhead)
	r.IdleWait(sim.Duration(float64(bytes) / cost.InterNodeBandwidth * float64(sim.Second)))
	return bytes
}

// Put is MPI_Put: one-sided write of count elements of dt into target's
// window at byte offset disp. data may be nil for synthetic payloads.
func (w *Win) Put(data []byte, count int, dt Datatype, targetRank int, disp int, tcount int, tdt Datatype) error {
	r := w.r
	defer r.endMPI(r.beginMPI("MPI_Put", addr(data), num(count), dt.arg(), num(targetRank), num(disp), num(tcount), tdt.arg(), ref(w)))
	if err := w.checkAccess(targetRank, "MPI_Put"); err != nil {
		return err
	}
	bytes := w.chargeOrigin(count, dt)
	w.issue(rmaOp{kind: "MPI_Put", target: targetRank, disp: disp, bytes: bytes, data: append([]byte(nil), data...)})
	return nil
}

// Get is MPI_Get: one-sided read from target's window into buf.
func (w *Win) Get(buf []byte, count int, dt Datatype, targetRank int, disp int, tcount int, tdt Datatype) error {
	r := w.r
	defer r.endMPI(r.beginMPI("MPI_Get", addr(buf), num(count), dt.arg(), num(targetRank), num(disp), num(tcount), tdt.arg(), ref(w)))
	if err := w.checkAccess(targetRank, "MPI_Get"); err != nil {
		return err
	}
	bytes := w.chargeOrigin(count, dt)
	w.issue(rmaOp{kind: "MPI_Get", target: targetRank, disp: disp, bytes: bytes, data: buf})
	return nil
}

// Accumulate is MPI_Accumulate: one-sided combine into the target window.
// OpSum is supported elementwise for Double and Int; OpReplace behaves like
// Put. Probe args: (origin_addr, origin_count, origin_datatype, target_rank,
// target_disp, target_count, target_datatype, op, win) — win is $arg[8].
func (w *Win) Accumulate(data []byte, count int, dt Datatype, targetRank int, disp int, tcount int, tdt Datatype, op Op) error {
	r := w.r
	defer r.endMPI(r.beginMPI("MPI_Accumulate", addr(data), num(count), dt.arg(), num(targetRank), num(disp), num(tcount), tdt.arg(), ref(op), ref(w)))
	if err := w.checkAccess(targetRank, "MPI_Accumulate"); err != nil {
		return err
	}
	bytes := w.chargeOrigin(count, dt)
	w.issue(rmaOp{kind: "MPI_Accumulate", target: targetRank, disp: disp, bytes: bytes,
		data: append([]byte(nil), data...), op: op, dt: dt})
	return nil
}

// checkAccess validates that an RMA data transfer is legal in the current
// epoch state: inside a PSCW access epoch the target must be in the start
// group; under passive target a lock must be held; otherwise a fence epoch
// is assumed (fence-to-fence, the MPI default usage).
func (w *Win) checkAccess(targetRank int, op string) error {
	if w.shared.freed {
		return errFreedWindow(op, w)
	}
	if targetRank < 0 || targetRank >= len(w.shared.comm.local) {
		return errBadTarget(op, targetRank, w)
	}
	if w.inAccess {
		for _, t := range w.startGroup {
			if t == targetRank {
				return nil
			}
		}
		return errOutsideGroup(op, targetRank, w)
	}
	return nil
}

func errFreedWindow(op string, w *Win) error {
	return &rmaError{op: op, win: w.UniqueID(), msg: "window has been freed"}
}

func errBadTarget(op string, rank int, w *Win) error {
	return &rmaError{op: op, win: w.UniqueID(), msg: "target rank out of range", rank: rank}
}

func errOutsideGroup(op string, rank int, w *Win) error {
	return &rmaError{op: op, win: w.UniqueID(), msg: "target not in access-epoch group", rank: rank}
}

// rmaError describes an illegal RMA operation.
type rmaError struct {
	op   string
	win  string
	msg  string
	rank int
}

func (e *rmaError) Error() string {
	return "mpi: " + e.op + " on window " + e.win + ": " + e.msg
}
