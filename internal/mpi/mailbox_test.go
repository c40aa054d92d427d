package mpi

import (
	"math/rand"
	"slices"
	"testing"
)

// FuzzQueue holds queue to a plain slice of the live entries in arrival
// order. Each byte of the input is one operation: a push, a first under a
// predicate the byte picks (then, for half of them, a remove of what it
// returned) or an each walk. The seeds run in four quarters — pushes only
// (every other seed), random, removals only, random — so pushes compact
// the slice, removals empty it and the emptied slice fills again.
func FuzzQueue(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 1000)
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
			switch i * 4 / len(ops) {
			case 0:
				if seed%2 == 0 {
					ops[i] &^= 3
				}
			case 2:
				ops[i] = ops[i]&^3 | 2 | 4
			}
		}
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		var (
			q     queue[*int]
			model []*int
			next  int
		)
		for step, b := range ops {
			mod, rem := int(b>>3%5)+1, int(b>>6%2)
			pick := func(v *int) bool { return *v%mod == rem%mod }
			switch b % 4 {
			case 0, 1:
				next++
				v := new(int)
				*v = next
				q.push(v)
				model = append(model, v)
			case 2:
				v, i := q.first(pick)
				k := slices.IndexFunc(model, pick)
				switch {
				case k < 0 && i >= 0:
					t.Fatalf("step %d: first found entry %d, the model none", step, *v)
				case k >= 0 && (i < 0 || v != model[k] || q.items[i] != v):
					t.Fatalf("step %d: first returned index %d, want entry %d", step, i, *model[k])
				case k >= 0 && b&4 != 0:
					q.remove(i)
					model = slices.Delete(model, k, k+1)
				}
			case 3:
				var walk []*int
				q.each(func(v *int) { walk = append(walk, v) })
				if !slices.Equal(walk, model) {
					t.Fatalf("step %d: each walked %d entries, the model holds %d in another order", step, len(walk), len(model))
				}
			}
			if err := q.check(len(model)); err != "" {
				t.Fatalf("step %d: %s", step, err)
			}
		}
	})
}

// check reports a broken invariant of q holding live entries, or "".
func (q *queue[T]) check(live int) string {
	var zero T
	dead := 0
	for i, v := range q.items {
		switch {
		case i < q.head && v != zero:
			return "a slot before head is not zero"
		case i == q.head && v == zero:
			return "head is a tombstone"
		case i > q.head && v == zero:
			dead++
		}
	}
	switch {
	case dead != q.dead:
		return "the tombstone count is off"
	case q.len() != live:
		return "the live count is off"
	}
	return ""
}

// A match at the head of the unexpected queue moves nothing, so a flood
// costs in proportion to the messages, not to the depth they queue to.
// Five senders flood a receiver that matches five of every six arrivals at
// the head, then drains the rest: 5 000 matches in all, the queue up to 834
// deep. Every move counts, the copies of append's growth included; shifting
// the queue on each match made this 416 per match.
func TestHeadMatchesMoveNothing(t *testing.T) {
	var q queue[*int]
	all := func(*int) bool { return true }
	moves, matches := 0, 0
	match := func() {
		_, i := q.first(all)
		moves += q.moved(func() { q.remove(i) })
		matches++
	}
	for n := 1; n <= 5000; n++ {
		v := new(int)
		moves += q.moved(func() { q.push(v) })
		if n%6 != 0 {
			match()
		}
	}
	for q.len() > 0 {
		match()
	}
	if matches != 5000 || moves > 2*matches {
		t.Errorf("%d entries moved over %d head matches, want at most 2 per match", moves, matches)
	}
}
