package mpi

import "slices"

// queue is one of a rank's arrival-ordered mailboxes (posted receives,
// unexpected messages, sends awaiting flow-window space). Only its methods
// search, remove from or walk one, so match order and removal cost live here.
type queue[T any] struct{ items []T }

func (q *queue[T]) push(v T) { q.items = append(q.items, v) }

// first returns the earliest-arrived entry that match accepts and its
// index, or the zero T and -1.
func (q *queue[T]) first(match func(T) bool) (T, int) {
	for i, v := range q.items {
		if match(v) {
			return v, i
		}
	}
	var zero T
	return zero, -1
}

// remove deletes entry i. Delete clears the vacated slot, so the queue does
// not pin a message or request that goes on to be recycled.
func (q *queue[T]) remove(i int) { q.items = slices.Delete(q.items, i, i+1) }

// each calls fn on every entry in arrival order.
func (q *queue[T]) each(fn func(T)) {
	for _, v := range q.items {
		fn(v)
	}
}
