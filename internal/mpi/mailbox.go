package mpi

import "slices"

// queue is one of a rank's arrival-ordered mailboxes (posted receives,
// unexpected messages, sends awaiting flow-window space). Only its methods
// search, remove from or walk one, so match order and removal cost live here.
//
// A removal moves nothing: the entry at head is passed by advancing head, one
// deeper in becomes a zero-value tombstone that first and each skip. Spent
// slots are zero, so the queue pins no message or request once it is removed.
type queue[T comparable] struct {
	items []T
	head  int // the first live entry, or len(items) when there is none
	dead  int // tombstones in items[head:]
}

// push appends v. A full slice at least a quarter spent is compacted in
// place, moving live entries only, instead of growing.
func (q *queue[T]) push(v T) {
	var zero T
	if n := len(q.items); n == cap(q.items) && 4*(q.head+q.dead) >= n {
		q.items, q.head, q.dead = slices.DeleteFunc(q.items, func(v T) bool { return v == zero }), 0, 0
	}
	q.items = append(q.items, v)
}

// first returns the earliest-arrived entry that match accepts and its
// index, or the zero T and -1.
func (q *queue[T]) first(match func(T) bool) (T, int) {
	var zero T
	for i := q.head; i < len(q.items); i++ {
		if v := q.items[i]; v != zero && match(v) {
			return v, i
		}
	}
	return zero, -1
}

// remove takes out entry i, an index first returned.
func (q *queue[T]) remove(i int) {
	var zero T
	if q.items[i] = zero; i != q.head {
		q.dead++
		return
	}
	for q.head++; q.head < len(q.items) && q.items[q.head] == zero; q.head++ {
		q.dead--
	}
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
}

// each calls fn on every entry in arrival order.
func (q *queue[T]) each(fn func(T)) {
	var zero T
	for _, v := range q.items[q.head:] {
		if v != zero {
			fn(v)
		}
	}
}
