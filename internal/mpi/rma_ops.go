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

// issueTransfer schedules the asynchronous data movement of one RMA op
// (bytes on the wire, for the trace) and registers it in the origin's epoch
// op list.
func (w *Win) issueTransfer(targetRank, bytes int, apply func()) {
	r := w.r
	ws := w.shared
	target := ws.comm.local[targetRank]
	op := &rmaOp{}
	w.ops = append(w.ops, op)
	at := r.Now().Add(ws.w.MsgTime(r.Now(), r.node, target.node, 0))
	if tr := ws.w.Tracer; tr != nil {
		// Origin→target data movement: a flow for the exporters, but not a
		// wait edge — RMA completion blocking happens at the epoch calls.
		ws.w.traceEdge("rma", r, target, r.Now(), at, 0, bytes, tr.NewFlow(), false)
	}
	ws.w.Eng.At(at, func() {
		if apply != nil {
			apply()
		}
		op.done = true
		r.wakeAt(at)
	})
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
	defer r.endMPI(r.beginMPI("MPI_Put", data, count, dt, targetRank, disp, tcount, tdt, w))
	if err := w.checkAccess(targetRank, "MPI_Put"); err != nil {
		return err
	}
	bytes := w.chargeOrigin(count, dt)
	payload := append([]byte(nil), data...)
	ws := w.shared
	w.issueTransfer(targetRank, bytes, func() {
		buf := ws.buf[targetRank]
		if payload != nil && disp < len(buf) {
			copy(buf[disp:], payload)
		} else if payload == nil {
			// Synthetic payload: mark the touched region.
			for i := disp; i < disp+bytes && i < len(buf); i++ {
				buf[i] = 0xAA
			}
		}
	})
	return nil
}

// Get is MPI_Get: one-sided read from target's window into buf.
func (w *Win) Get(buf []byte, count int, dt Datatype, targetRank int, disp int, tcount int, tdt Datatype) error {
	r := w.r
	defer r.endMPI(r.beginMPI("MPI_Get", buf, count, dt, targetRank, disp, tcount, tdt, w))
	if err := w.checkAccess(targetRank, "MPI_Get"); err != nil {
		return err
	}
	bytes := w.chargeOrigin(count, dt)
	ws := w.shared
	w.issueTransfer(targetRank, bytes, func() {
		src := ws.buf[targetRank]
		if buf != nil && disp < len(src) {
			copy(buf, src[disp:])
		}
	})
	return nil
}

// Accumulate is MPI_Accumulate: one-sided combine into the target window.
// OpSum is supported elementwise for Double and Int; OpReplace behaves like
// Put. Probe args: (origin_addr, origin_count, origin_datatype, target_rank,
// target_disp, target_count, target_datatype, op, win) — win is $arg[8].
func (w *Win) Accumulate(data []byte, count int, dt Datatype, targetRank int, disp int, tcount int, tdt Datatype, op Op) error {
	r := w.r
	defer r.endMPI(r.beginMPI("MPI_Accumulate", data, count, dt, targetRank, disp, tcount, tdt, op, w))
	if err := w.checkAccess(targetRank, "MPI_Accumulate"); err != nil {
		return err
	}
	bytes := w.chargeOrigin(count, dt)
	payload := append([]byte(nil), data...)
	ws := w.shared
	w.issueTransfer(targetRank, bytes, func() {
		buf := ws.buf[targetRank]
		if payload == nil || disp >= len(buf) {
			return
		}
		switch {
		case op == OpReplace:
			copy(buf[disp:], payload)
		case op == OpSum && dt == Double:
			for i := 0; i+8 <= len(payload) && disp+i+8 <= len(buf); i += 8 {
				cur := math.Float64frombits(binary.LittleEndian.Uint64(buf[disp+i:]))
				add := math.Float64frombits(binary.LittleEndian.Uint64(payload[i:]))
				binary.LittleEndian.PutUint64(buf[disp+i:], math.Float64bits(cur+add))
			}
		case op == OpSum && dt == Int:
			for i := 0; i+4 <= len(payload) && disp+i+4 <= len(buf); i += 4 {
				cur := binary.LittleEndian.Uint32(buf[disp+i:])
				add := binary.LittleEndian.Uint32(payload[i:])
				binary.LittleEndian.PutUint32(buf[disp+i:], cur+add)
			}
		default:
			copy(buf[disp:], payload)
		}
	})
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

// LocalBuffer exposes the rank's own window memory (for verification in
// tests and examples).
func (w *Win) LocalBuffer() []byte { return w.shared.buf[w.myRank] }
