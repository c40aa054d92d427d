// Package resource implements the tool's Resource Hierarchy (§4): the tree
// of measurable program entities rooted at Whole Program, with the Code,
// Machine and SyncObject categories beneath it. Resources are discovered
// dynamically (new processes, communicators, RMA windows), can carry
// user-friendly display names (MPI-2 object naming, §4.2.3), and are retired
// rather than removed when deallocated so that historical data stays
// addressable while the Performance Consultant stops considering them.
package resource

import (
	"fmt"
	"slices"
	"strings"
)

// Standard top-level categories and SyncObject subtypes.
const (
	Code       = "Code"
	Machine    = "Machine"
	SyncObject = "SyncObject"

	Message = "Message" // /SyncObject/Message/<comm>[/<tag>]
	Barrier = "Barrier" // /SyncObject/Barrier
	Window  = "Window"  // /SyncObject/Window/<N-M>
)

// Node is one resource in the hierarchy.
type Node struct {
	name     string // path component, unique among siblings
	path     string // full path from the root, "" for the root itself
	display  string // user-friendly name, if set
	parent   *Node
	children []*Node
	byName   map[string]*Node
	retired  bool
}

// Hierarchy is the resource tree. The zero value is not usable; construct
// with New.
type Hierarchy struct {
	root *Node
}

// New returns a hierarchy pre-populated with the standard structure:
// /Code, /Machine, /SyncObject/{Message,Barrier,Window}.
func New() *Hierarchy {
	h := &Hierarchy{root: &Node{name: "", byName: map[string]*Node{}}}
	h.Add(Code)
	h.Add(Machine)
	h.Add(SyncObject, Message)
	h.Add(SyncObject, Barrier)
	h.Add(SyncObject, Window)
	return h
}

// Root returns the Whole Program node.
func (h *Hierarchy) Root() *Node { return h.root }

// Add creates (or returns, if present) the node at the given path of
// components from the root. Intermediate nodes are created as needed.
func (h *Hierarchy) Add(path ...string) *Node {
	n := h.root
	for _, comp := range path {
		child, ok := n.byName[comp]
		if !ok {
			child = &Node{name: comp, path: n.path + "/" + comp, parent: n, byName: map[string]*Node{}}
			n.children = append(n.children, child)
			n.byName[comp] = child
		}
		n = child
	}
	return n
}

// AddPath is Add for a slash-separated path string like
// "/SyncObject/Window/3-1".
func (h *Hierarchy) AddPath(path string) *Node {
	return h.Add(splitPath(path)...)
}

// Find returns the node at the given path, or nil.
func (h *Hierarchy) Find(path ...string) *Node {
	n := h.root
	for _, comp := range path {
		n = n.byName[comp]
		if n == nil {
			return nil
		}
	}
	return n
}

// FindPath is Find for a slash-separated path string.
func (h *Hierarchy) FindPath(path string) *Node {
	return h.Find(splitPath(path)...)
}

// splitPath returns the path's non-empty components (nil when it has none) in
// one allocation.
func splitPath(path string) []string {
	_, n := component(path, -1)
	if n == 0 {
		return nil
	}
	comps := make([]string, n)
	for i := range comps {
		comps[i], _ = component(path, i)
	}
	return comps
}

// Name returns the node's path component.
func (n *Node) Name() string { return n.name }

// DisplayName returns the user-friendly name if one was set, else the path
// component.
func (n *Node) DisplayName() string {
	if n.display != "" {
		return n.display
	}
	return n.name
}

// SetDisplayName attaches a user-friendly name (MPI object naming).
func (n *Node) SetDisplayName(d string) { n.display = d }

// Children returns the node's children in creation order.
func (n *Node) Children() []*Node { return append([]*Node(nil), n.children...) }

// ActiveChildren returns the non-retired children in creation order. When
// none is retired the slice is the node's own: read it, do not keep or
// modify it.
func (n *Node) ActiveChildren() []*Node {
	if !slices.ContainsFunc(n.children, (*Node).Retired) {
		return slices.Clip(n.children)
	}
	return slices.DeleteFunc(slices.Clone(n.children), (*Node).Retired)
}

// Child returns the named child, or nil.
func (n *Node) Child(name string) *Node { return n.byName[name] }

// Path returns the node's full path, e.g. "/SyncObject/Window/3-1". The
// root's path is "/".
func (n *Node) Path() string {
	if n.parent == nil {
		return "/"
	}
	return n.path
}

// Retire marks the node (and, conceptually, the resource it names) as
// deallocated. Retired resources are grayed out in displays and excluded
// from the Performance Consultant's candidate set (§4.2.3).
func (n *Node) Retire() { n.retired = true }

// Retired reports whether the node is retired.
func (n *Node) Retired() bool { return n.retired }

// Unretire reverses Retire — used when a presumed-dead resource recovers
// (e.g. a hung tool daemon resumes reporting).
func (n *Node) Unretire() { n.retired = false }

// Walk visits the subtree rooted at n in depth-first order.
func (n *Node) Walk(visit func(*Node)) {
	visit(n)
	for _, c := range n.children {
		c.Walk(visit)
	}
}

// Render draws the hierarchy as an indented tree, the textual counterpart of
// the paper's resource-hierarchy screenshots (Fig 23). Retired resources are
// annotated; display names are shown with the underlying id when they
// differ.
func (h *Hierarchy) Render() string {
	var b strings.Builder
	b.WriteString("Whole Program\n")
	var rec func(n *Node, indent string)
	rec = func(n *Node, indent string) {
		kids := n.children
		for i, c := range kids {
			connector, childIndent := "├─ ", indent+"│  "
			if i == len(kids)-1 {
				connector, childIndent = "└─ ", indent+"   "
			}
			label := c.DisplayName()
			if c.display != "" && c.display != c.name {
				label = fmt.Sprintf("%s [%s]", c.display, c.name)
			}
			if c.retired {
				label += " (retired)"
			}
			b.WriteString(indent + connector + label + "\n")
			rec(c, childIndent)
		}
	}
	rec(h.root, "")
	return b.String()
}
