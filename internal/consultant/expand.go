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
	for _, ax := range n.spec.axes {
		for _, cand := range c.candidates(n, ax) {
			if c.nodes >= maxNodes {
				return
			}
			// Unconstrainable metric/focus combinations are skipped, as the
			// real tool refuses them.
			_, _ = c.newNode(n.spec, cand.focus, cand.label, n)
		}
	}
}

func (c *Consultant) candidates(n *Node, ax axis) []candidate {
	switch ax {
	case axisCode:
		return c.codeCandidates(n)
	case axisMachine:
		return c.machineCandidates(n)
	case axisSync:
		return c.syncCandidates(n)
	}
	return nil
}

// codeCandidates refines the Code axis: from the whole program to the
// application's procedures, then down the observed call graph (which is how
// the tool drills from Gsend_message into MPI_Send).
func (c *Consultant) codeCandidates(n *Node) []candidate {
	h := c.ds.Hierarchy()
	var out []candidate
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
		return nil
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

// machineCandidates refines the Machine axis: whole → nodes → processes.
func (c *Consultant) machineCandidates(n *Node) []candidate {
	h := c.ds.Hierarchy()
	var out []candidate
	if n.Focus.MachineProcess() != "" {
		return nil
	}
	if nodeName := n.Focus.MachineNode(); nodeName != "" {
		nd := h.Find(resource.Machine, nodeName)
		if nd == nil {
			return nil
		}
		for _, p := range nd.ActiveChildren() {
			out = append(out, candidate{n.Focus.WithMachine(p.Path()), p.Name()})
		}
		return out
	}
	machine := h.Find(resource.Machine)
	if machine == nil {
		return nil
	}
	for _, nd := range machine.ActiveChildren() {
		out = append(out, candidate{n.Focus.WithMachine(nd.Path()), nd.Name()})
	}
	return out
}

// syncCandidates refines the SyncObject axis: categories, then specific
// communicators/windows, then message tags. Retired resources (freed
// windows) are excluded from the candidate set (§4.2.3).
func (c *Consultant) syncCandidates(n *Node) []candidate {
	h := c.ds.Hierarchy()
	parts := n.Focus.SyncParts()
	var out []candidate
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
			return nil
		}
		for _, obj := range nd.ActiveChildren() {
			out = append(out, candidate{n.Focus.WithSync(obj.Path()), obj.DisplayName()})
		}
	case 2:
		if parts[0] != resource.Message {
			return nil
		}
		nd := h.FindPath(n.Focus.SyncPath)
		if nd == nil {
			return nil
		}
		// Cap tag enumeration: programs cycling through many tags would
		// otherwise dominate the search budget.
		const maxTagCandidates = 12
		for _, tag := range nd.ActiveChildren() {
			if len(out) >= maxTagCandidates {
				break
			}
			out = append(out, candidate{n.Focus.WithSync(tag.Path()), tag.Name()})
		}
	}
	return out
}
