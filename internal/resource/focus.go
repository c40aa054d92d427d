package resource

import "strings"

// Focus selects what part of the program a metric measures: one resource
// path per top-level hierarchy, as in Paradyn's metric-focus pairs. The
// whole-program focus selects the root of every hierarchy.
type Focus struct {
	// CodePath selects a module or function, e.g. "/Code/app.c/Gsend_message".
	CodePath string
	// MachinePath selects a node or process, e.g. "/Machine/node1/p3".
	MachinePath string
	// SyncPath selects a synchronization object, e.g.
	// "/SyncObject/Window/3-1" or "/SyncObject/Message/comm-1/tag-5".
	SyncPath string
}

// WholeProgram returns the unrestricted focus.
func WholeProgram() Focus {
	return Focus{CodePath: "/Code", MachinePath: "/Machine", SyncPath: "/SyncObject"}
}

// Canon returns the focus's canonical form: empty components filled with
// the hierarchy roots. Two foci select the same resources exactly when their
// canonical forms are ==, so the canonical focus is what sets and maps of
// foci are keyed by.
func (f Focus) Canon() Focus {
	if f.CodePath == "" {
		f.CodePath = "/Code"
	}
	if f.MachinePath == "" {
		f.MachinePath = "/Machine"
	}
	if f.SyncPath == "" {
		f.SyncPath = "/SyncObject"
	}
	return f
}

// IsWholeProgram reports whether the focus places no restriction.
func (f Focus) IsWholeProgram() bool {
	f = f.Canon()
	return f.CodePath == "/Code" && f.MachinePath == "/Machine" && f.SyncPath == "/SyncObject"
}

// WithCode/WithMachine/WithSync return a copy of the focus refined along one
// hierarchy.
func (f Focus) WithCode(path string) Focus    { f.CodePath = path; return f }
func (f Focus) WithMachine(path string) Focus { f.MachinePath = path; return f }
func (f Focus) WithSync(path string) Focus    { f.SyncPath = path; return f }

// String renders the focus in Paradyn's angle-bracket notation.
func (f Focus) String() string {
	f = f.Canon()
	return "<" + f.CodePath + "," + f.MachinePath + "," + f.SyncPath + ">"
}

// CodeFunction returns the function name selected by the Code path
// ("/Code/<module>/<function>"), or "" if the focus selects a whole module
// or all code.
func (f Focus) CodeFunction() string {
	if c, n := component(f.Canon().CodePath, 2); n == 3 {
		return c
	}
	return ""
}

// CodeModule returns the module selected by the Code path, or "".
func (f Focus) CodeModule() string {
	c, _ := component(f.Canon().CodePath, 1)
	return c
}

// MachineNode returns the node name selected by the Machine path, or "".
func (f Focus) MachineNode() string {
	c, _ := component(f.Canon().MachinePath, 1)
	return c
}

// MachineProcess returns the process name selected by the Machine path
// ("/Machine/<node>/<process>"), or "".
func (f Focus) MachineProcess() string {
	if c, n := component(f.Canon().MachinePath, 2); n == 3 {
		return c
	}
	return ""
}

// component cuts the i-th non-empty component out of a slash-separated path
// by index ("" when there is none) and counts the path's components — what
// splitPath(path)[i] and len(splitPath(path)) say, without the split.
func component(path string, i int) (comp string, n int) {
	for path != "" {
		c, rest, _ := strings.Cut(path, "/")
		if c != "" {
			if n == i {
				comp = c
			}
			n++
		}
		path = rest
	}
	return comp, n
}

// SyncParts returns the components of the SyncObject path after the root:
// e.g. ["Window", "3-1"] or ["Message", "comm-1", "tag-5"].
func (f Focus) SyncParts() []string {
	path := f.Canon().SyncPath
	if _, n := component(path, 1); n <= 1 {
		return nil
	}
	return splitPath(path)[1:]
}
