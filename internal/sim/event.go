package sim

// Target is the action of a scheduled event: Fire runs in scheduler context
// at the event's time. A layer that schedules an event per message
// implements it on a value it already owns (mpi's messages and requests),
// so scheduling allocates nothing; At adapts a plain func() for everyone
// else.
type Target interface{ Fire() }

// funcTarget adapts a func() to Target. A func value is pointer-shaped, so
// converting it to the interface does not allocate.
type funcTarget func()

func (f funcTarget) Fire() { f() }

// procClass is the bit a ready process's seq carries above the engine's
// counter: of the entries due at one instant, every event sorts before every
// process, events in scheduling order and processes in wake order.
const procClass = 1 << 63

// event is one entry of the engine's agenda: tgt to fire at time at, or,
// when proc is set, that process to dispatch.
type event struct {
	at   Time
	seq  uint64
	tgt  Target
	proc *Proc
}

func (ev *event) before(o *event) bool {
	if ev.at != o.at {
		return ev.at < o.at
	}
	return ev.seq < o.seq
}

// eventHeap is a binary min-heap of event values ordered by (at, seq) — a
// total order, seq being unique, so the order of execution does not depend on
// the heap's layout. It is sifted by hand because container/heap moves elements
// through `any`, which would put every event on the Go heap.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	*h = q
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q[i].before(&q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes and returns the earliest event; the heap must not be empty.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // the vacated slot must not pin the target or the process
	q = q[:n]
	*h = q
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	return top
}
