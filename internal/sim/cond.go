package sim

// Cond is a virtual-time condition variable: processes wait on it and are
// woken by Signal or Broadcast at a given time. Unlike sync.Cond there is no
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

// Signal wakes the longest-waiting process at time t. It returns the woken
// process, or nil if none were waiting.
func (c *Cond) Signal(t Time) *Proc {
	for len(c.waiters) > 0 {
		p := c.waiters[0]
		c.waiters[0] = nil // the vacated slot must not pin the process
		c.waiters = c.waiters[1:]
		if p.WakeAt(t) {
			return p
		}
	}
	return nil
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
