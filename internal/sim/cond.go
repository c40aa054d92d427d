package sim

// Cond is a virtual-time condition variable: processes wait on it and are
// woken by Broadcast at a given time. Unlike sync.Cond there is no
// lock, because the engine is sequential.
type Cond struct {
	waiters []*Proc
}

// Wait blocks the calling process on the condition. As with sync.Cond, the
// caller must re-check its predicate in a loop, because another process may
// run between the wake-up and the resumption. what describes the wait for
// deadlock reports, as in Proc.Wait.
func (c *Cond) Wait(p *Proc, what any) {
	c.waiters = append(c.waiters, p)
	p.Wait(what)
}

// Broadcast wakes all waiting processes at time t and returns how many were
// woken.
func (c *Cond) Broadcast(t Time) int {
	n := 0
	for _, p := range c.waiters {
		if p.WakeAt(t) {
			n++
		}
	}
	c.waiters = c.waiters[:0]
	return n
}
