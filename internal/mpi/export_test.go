package mpi

import (
	"fmt"
	"reflect"
)

// What the external tests (package mpi_test, which can import the layers
// above mpi: mdl, faults, pperfmark) read of the runtime's internals.

// len is the number of entries in q; only tests ask.
func (q *queue[T]) len() int { return len(q.items) - q.head - q.dead }

// slots lists q's live entries in arrival order with the slot each is in.
func (q *queue[T]) slots() ([]T, []*T) {
	var (
		zero T
		vs   []T
		at   []*T
	)
	for i := range q.items {
		if q.items[i] != zero {
			vs, at = append(vs, q.items[i]), append(at, &q.items[i])
		}
	}
	return vs, at
}

// moved runs op on q and counts the entries op moved to another slot: a
// removal's shifts and a compaction's or a growth's copies alike. Entries
// keep their order, so one walk pairs each entry before op with itself
// after it.
func (q *queue[T]) moved(op func()) int {
	before, at := q.slots()
	op()
	after, now := q.slots()
	n, j := 0, 0
	for i, v := range before {
		if j < len(after) && after[j] == v {
			if now[j] != at[i] {
				n++
			}
			j++
		}
	}
	return n
}

// UnexpectedLen is the length of r's unexpected-message queue.
func (r *Rank) UnexpectedLen() int { return r.unexpected.len() }

// PostedLen is the number of receives r has posted and no message has
// matched yet.
func (r *Rank) PostedLen() int { return r.posted.len() }

// FirstPosted is the earliest of those receives, or nil.
func (r *Rank) FirstPosted() *Request {
	rq, _ := r.posted.first(func(*Request) bool { return true })
	return rq
}

// FreeRequests is the length of the world's request free list.
func (w *World) FreeRequests() int { return len(w.freeReqs) }

// IsRecycled reports whether rq is on the world's request free list.
func (w *World) IsRecycled(rq *Request) bool {
	for _, f := range w.freeReqs {
		if f == rq {
			return true
		}
	}
	return false
}

// EpochOps is the number of transfers the rank issued in the window's
// current epoch.
func (w *Win) EpochOps() int { return len(w.ops) }

// SpareOps is the length of the window's spare op list.
func (w *Win) SpareOps() int { return len(w.spare) }

// CheckSpareOps returns an error if an op on the window's spare list is there
// twice, is in the current epoch's list, has not fired (it is still
// scheduled) or still holds its window or buffer.
func (w *Win) CheckSpareOps() error {
	spare := map[*rmaOp]bool{}
	for _, op := range w.spare {
		switch {
		case spare[op]:
			return fmt.Errorf("op %p is on the spare list twice", op)
		case !op.done:
			return fmt.Errorf("spare op %p has not fired: %+v", op, *op)
		case op.win != nil || op.data != nil:
			return fmt.Errorf("spare op %p still holds its window or buffer: %+v", op, *op)
		}
		spare[op] = true
	}
	for _, op := range w.ops {
		if spare[op] {
			return fmt.Errorf("op %p of the current epoch is on the spare list", op)
		}
	}
	return nil
}

// CheckFreeRequests returns an error if a request on the world's free list
// is there twice, is not zeroed, or can still be reached from a rank's
// posted queue, pendingSends or unexpected messages.
func (w *World) CheckFreeRequests() error {
	free := map[*Request]bool{}
	for _, rq := range w.freeReqs {
		if free[rq] {
			return fmt.Errorf("request %p is on the free list twice", rq)
		}
		if !reflect.ValueOf(*rq).IsZero() {
			return fmt.Errorf("request %p on the free list is not zeroed: %+v", rq, *rq)
		}
		free[rq] = true
	}
	isFree := func(rq *Request) bool { return free[rq] }
	for _, r := range w.ranks {
		if _, i := r.posted.first(isFree); i >= 0 {
			return fmt.Errorf("%v: a posted receive is on the free list", r)
		}
		if _, i := r.pendingSends.first(isFree); i >= 0 {
			return fmt.Errorf("%v: a send waiting for window space is on the free list", r)
		}
		if _, i := r.unexpected.first(func(m *message) bool { return m.sreq != nil && free[m.sreq] }); i >= 0 {
			return fmt.Errorf("%v: the sender of a queued rendezvous notice is on the free list", r)
		}
	}
	return nil
}
