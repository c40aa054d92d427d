package cluster

import (
	"pperf/internal/sim"
)

// LinkState is the fault-injected condition of one node-pair link (or the
// whole fabric). The zero value means a healthy link.
type LinkState struct {
	// LatFactor multiplies the link's base latency (0 or 1 = unchanged).
	LatFactor float64
	// BWFactor multiplies the link's base bandwidth (0 or 1 = unchanged).
	// Values < 1 model bandwidth collapse.
	BWFactor float64
	// DownUntil, when nonzero, severs the link until the given virtual time:
	// traffic entering the link is held and delivered only after the link
	// comes back (plus its transit time).
	DownUntil sim.Time
}

// Network overlays fault-injected link conditions on a cluster. A nil
// *Network means no faults; the cost-model fast path is unchanged. Keys are
// unordered node-index pairs; the special pair (-1,-1) applies to every
// link (including intra-node "links", which model a dying local interconnect
// only when explicitly targeted).
type Network struct {
	links map[[2]int]LinkState
}

// NewNetwork returns an empty (healthy) fault overlay.
func NewNetwork() *Network {
	return &Network{links: map[[2]int]LinkState{}}
}

func linkKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// SetLink installs a fault state on the a↔b link. Node order is irrelevant.
func (n *Network) SetLink(a, b int, st LinkState) {
	n.links[linkKey(a, b)] = st
}

// SetAll installs a fault state on every link.
func (n *Network) SetAll(st LinkState) {
	n.links[linkKey(-1, -1)] = st
}

// State returns the fault state of the a↔b link (pair-specific state wins
// over an all-links state).
func (n *Network) State(a, b int) (LinkState, bool) {
	if st, ok := n.links[linkKey(a, b)]; ok {
		return st, true
	}
	st, ok := n.links[linkKey(-1, -1)]
	return st, ok
}

// Apply adjusts a message's base latency and bandwidth for the a↔b link at
// virtual time now. The returned hold is the extra delay a severed link adds
// (time until the link is restored); latency and bandwidth multipliers apply
// on top of it.
func (n *Network) Apply(now sim.Time, a, b int, lat sim.Duration, bw float64) (sim.Duration, float64, sim.Duration) {
	st, ok := n.State(a, b)
	if !ok {
		return lat, bw, 0
	}
	if st.LatFactor > 0 {
		lat = sim.Duration(float64(lat) * st.LatFactor)
	}
	if st.BWFactor > 0 {
		bw *= st.BWFactor
	}
	var hold sim.Duration
	if st.DownUntil > now {
		hold = st.DownUntil.Sub(now)
	}
	return lat, bw, hold
}
