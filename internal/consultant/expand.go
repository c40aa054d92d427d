package consultant

import (
	"strings"

	"pperf/internal/resource"
)

// candidate is one proposed refinement of a node's focus.
type candidate struct {
	focus resource.Focus
	label string
}

// expand generates and arms the child foci of a node that tested true,
// along each axis the hypothesis refines over.
func (c *Consultant) expand(n *Node) {
	n.expanded = true
	if n.depth >= maxDepth || c.nodes >= maxNodes {
		return
	}
	cands := c.cands[:0]
	for _, ax := range n.spec.axes {
		switch ax {
		case axisCode:
			cands = c.codeCandidates(cands, n)
		case axisMachine:
			cands = c.machineCandidates(cands, n)
		case axisSync:
			cands = c.syncCandidates(cands, n)
		}
	}
	c.cands = cands
	n.Children = make([]*Node, 0, len(cands))
	for _, cand := range cands {
		if c.nodes >= maxNodes {
			return
		}
		// Unconstrainable metric/focus combinations are skipped, as the
		// real tool refuses them.
		_, _ = c.newNode(n.spec, cand.focus, cand.label, n)
	}
}

// codeCandidates appends the refinements of the Code axis to out: from the
// whole program to the application's procedures, then down the observed call
// graph (which is how the tool drills from Gsend_message into MPI_Send).
func (c *Consultant) codeCandidates(out []candidate, n *Node) []candidate {
	h := c.ds.Hierarchy()
	if fn := n.Focus.CodeFunction(); fn != "" {
		// Refine to callees, avoiding functions already on this chain.
		for _, callee := range c.ds.Callees(fn) {
			if n.onCodeChain(callee) {
				continue
			}
			if path := findFunctionPath(h, callee); path != "" {
				out = append(out, candidate{n.Focus.WithCode(path), callee})
			}
		}
		return out
	}
	// Top level: the application's own procedures plus the call-graph roots
	// (library routines the program invokes directly, e.g. MPI_Barrier at
	// the top of a loop). Library functions reached from inside application
	// procedures are found by the callee refinement instead.
	code := h.Find(resource.Code)
	if code == nil {
		return out
	}
	skip := map[string]bool{"MPI_Init": true, "PMPI_Init": true,
		"MPI_Finalize": true, "PMPI_Finalize": true}
	for _, mod := range code.ActiveChildren() {
		lib := isLibraryModule(mod.Name())
		for _, fn := range mod.ActiveChildren() {
			if skip[fn.Name()] {
				continue
			}
			if lib && c.ds.IsCallee(fn.Name()) {
				continue
			}
			out = append(out, candidate{n.Focus.WithCode(fn.Path()), fn.Name()})
		}
	}
	return out
}

// onCodeChain reports whether fname is already a refinement step on the
// node's ancestry (prevents call-graph cycles).
func (n *Node) onCodeChain(fname string) bool {
	for m := n; m != nil; m = m.Parent {
		if m.Focus.CodeFunction() == fname {
			return true
		}
	}
	return false
}

// isLibraryModule classifies Code modules: MPI libraries and libc are
// reached via the call graph rather than enumerated at the top.
func isLibraryModule(name string) bool { return strings.HasPrefix(name, "lib") }

// findFunctionPath locates a function by name anywhere under /Code.
func findFunctionPath(h *resource.Hierarchy, fname string) string {
	code := h.Find(resource.Code)
	if code == nil {
		return ""
	}
	for _, mod := range code.Children() {
		if fn := mod.Child(fname); fn != nil {
			return fn.Path()
		}
	}
	return ""
}

// machineCandidates appends the refinements of the Machine axis to out:
// whole → nodes → processes.
func (c *Consultant) machineCandidates(out []candidate, n *Node) []candidate {
	h := c.ds.Hierarchy()
	if n.Focus.MachineProcess() != "" {
		return out
	}
	if nodeName := n.Focus.MachineNode(); nodeName != "" {
		nd := h.Find(resource.Machine, nodeName)
		if nd == nil {
			return out
		}
		for _, p := range nd.ActiveChildren() {
			out = append(out, candidate{n.Focus.WithMachine(p.Path()), p.Name()})
		}
		return out
	}
	machine := h.Find(resource.Machine)
	if machine == nil {
		return out
	}
	for _, nd := range machine.ActiveChildren() {
		out = append(out, candidate{n.Focus.WithMachine(nd.Path()), nd.Name()})
	}
	return out
}

// syncCandidates appends the refinements of the SyncObject axis to out:
// categories, then specific communicators/windows, then message tags.
// Retired resources (freed windows) are excluded from the candidate set
// (§4.2.3).
func (c *Consultant) syncCandidates(out []candidate, n *Node) []candidate {
	h := c.ds.Hierarchy()
	parts := n.Focus.SyncParts()
	switch len(parts) {
	case 0:
		for _, cat := range []string{resource.Message, resource.Barrier, resource.Window} {
			nd := h.Find(resource.SyncObject, cat)
			if nd == nil {
				continue
			}
			if cat != resource.Barrier && len(nd.ActiveChildren()) == 0 {
				continue
			}
			out = append(out, candidate{n.Focus.WithSync(nd.Path()), cat})
		}
	case 1:
		nd := h.FindPath(n.Focus.SyncPath)
		if nd == nil || parts[0] == resource.Barrier {
			return out
		}
		for _, obj := range nd.ActiveChildren() {
			out = append(out, candidate{n.Focus.WithSync(obj.Path()), obj.DisplayName()})
		}
	case 2:
		if parts[0] != resource.Message {
			return out
		}
		nd := h.FindPath(n.Focus.SyncPath)
		if nd == nil {
			return out
		}
		// Cap tag enumeration: programs cycling through many tags would
		// otherwise dominate the search budget.
		const maxTagCandidates = 12
		tags := nd.ActiveChildren()
		for _, tag := range tags[:min(len(tags), maxTagCandidates)] {
			out = append(out, candidate{n.Focus.WithSync(tag.Path()), tag.Name()})
		}
	}
	return out
}
