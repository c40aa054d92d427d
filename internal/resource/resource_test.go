package resource

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestNewHasStandardStructure(t *testing.T) {
	h := New()
	for _, path := range []string{"/Code", "/Machine", "/SyncObject",
		"/SyncObject/Message", "/SyncObject/Barrier", "/SyncObject/Window"} {
		if h.FindPath(path) == nil {
			t.Errorf("standard resource %s missing", path)
		}
	}
}

func TestAddAndFind(t *testing.T) {
	h := New()
	n := h.Add(SyncObject, Window, "3-1")
	if n.Path() != "/SyncObject/Window/3-1" {
		t.Errorf("path = %q", n.Path())
	}
	if h.FindPath("/SyncObject/Window/3-1") != n {
		t.Error("FindPath did not return the added node")
	}
	// Adding again returns the same node.
	if h.Add(SyncObject, Window, "3-1") != n {
		t.Error("Add should be idempotent")
	}
}

func TestAddPathCreatesIntermediates(t *testing.T) {
	h := New()
	h.AddPath("/Code/app.c/bottleneckProcedure")
	if h.FindPath("/Code/app.c") == nil {
		t.Error("intermediate module node missing")
	}
	if got := h.FindPath("/Code/app.c/bottleneckProcedure").parent.Name(); got != "app.c" {
		t.Errorf("parent = %q", got)
	}
}

func TestRetireAndActiveChildren(t *testing.T) {
	h := New()
	a := h.Add(SyncObject, Window, "0-1")
	h.Add(SyncObject, Window, "0-2")
	a.Retire()
	if !a.Retired() {
		t.Error("a should be retired")
	}
	win := h.Find(SyncObject, Window)
	if len(win.Children()) != 2 {
		t.Errorf("children = %d, want 2 (retired stays in tree)", len(win.Children()))
	}
	active := win.ActiveChildren()
	if len(active) != 1 || active[0].Name() != "0-2" {
		t.Errorf("active = %v", active)
	}
}

// With no child retired, ActiveChildren is the node's own list, clipped so
// an append by the caller cannot reach the hierarchy, and allocates nothing;
// a retirement anywhere gives a fresh list in creation order.
func TestActiveChildrenSharesTheListUntilARetirement(t *testing.T) {
	h := New()
	msg := h.Find(SyncObject, Message)
	for _, c := range []string{"comm-1", "comm-2", "comm-3", "comm-4", "comm-5"} {
		h.Add(SyncObject, Message, c)
	}
	if n := testing.AllocsPerRun(100, func() { msg.ActiveChildren() }); n != 0 {
		t.Errorf("ActiveChildren with nothing retired: %v allocs, want 0", n)
	}
	grown := append(msg.ActiveChildren(), &Node{name: "stray"})
	h.Add(SyncObject, Message, "comm-6")
	if got := names(msg.ActiveChildren()); got != "comm-1 comm-2 comm-3 comm-4 comm-5 comm-6" || grown[5].Name() != "stray" {
		t.Errorf("after an append to the returned list: %s, appended %s", got, grown[5].Name())
	}
	for _, retire := range []string{"comm-2", "comm-1", "comm-6"} {
		msg.Child(retire).Retire()
	}
	if got := names(msg.ActiveChildren()); got != "comm-3 comm-4 comm-5" {
		t.Errorf("with comm-1, comm-2 and comm-6 retired: %s", got)
	}
	if got := names(msg.Children()); got != "comm-1 comm-2 comm-3 comm-4 comm-5 comm-6" {
		t.Errorf("children after retirements: %s", got)
	}
}

func names(ns []*Node) string {
	var out []string
	for _, n := range ns {
		out = append(out, n.Name())
	}
	return strings.Join(out, " ")
}

func TestDisplayNames(t *testing.T) {
	h := New()
	n := h.Add(SyncObject, Window, "1-4")
	if n.DisplayName() != "1-4" {
		t.Errorf("default display = %q", n.DisplayName())
	}
	n.SetDisplayName("ParentChildWin")
	if n.DisplayName() != "ParentChildWin" {
		t.Errorf("display = %q", n.DisplayName())
	}
	r := h.Render()
	if !strings.Contains(r, "ParentChildWin [1-4]") {
		t.Errorf("render should show friendly name with id:\n%s", r)
	}
}

func TestRenderMarksRetired(t *testing.T) {
	h := New()
	n := h.Add(SyncObject, Window, "2-9")
	n.Retire()
	if !strings.Contains(h.Render(), "2-9 (retired)") {
		t.Errorf("render missing retired annotation:\n%s", h.Render())
	}
}

func TestCount(t *testing.T) {
	h := New()
	count := func(includeRetired bool) int {
		n := 0
		h.root.Walk(func(m *Node) {
			if m != h.root && (includeRetired || !m.Retired()) {
				n++
			}
		})
		return n
	}
	base := count(true) // 6 standard nodes
	h.Add(Code, "app.c", "main")
	if count(true) != base+2 {
		t.Errorf("count = %d, want %d", count(true), base+2)
	}
	h.FindPath("/Code/app.c/main").Retire()
	if count(false) != base+1 {
		t.Errorf("active count = %d, want %d", count(false), base+1)
	}
}

func TestWalkOrder(t *testing.T) {
	h := New()
	h.Add(Machine, "node0", "p0")
	h.Add(Machine, "node0", "p1")
	var seen []string
	h.Find(Machine).Walk(func(n *Node) { seen = append(seen, n.Name()) })
	want := "Machine,node0,p0,p1"
	if got := strings.Join(seen, ","); got != want {
		t.Errorf("walk = %q, want %q", got, want)
	}
}

func TestFocusWholeProgram(t *testing.T) {
	f := WholeProgram()
	if !f.IsWholeProgram() {
		t.Error("WholeProgram should be whole")
	}
	if got := f.String(); got != "</Code,/Machine,/SyncObject>" {
		t.Errorf("whole program renders as %q", got)
	}
	var zero Focus
	if !zero.IsWholeProgram() {
		t.Error("zero focus should normalize to whole program")
	}
}

func TestFocusRefinement(t *testing.T) {
	f := WholeProgram().
		WithCode("/Code/app.c/Gsend_message").
		WithSync("/SyncObject/Message/comm-1/tag-5")
	if f.IsWholeProgram() {
		t.Error("refined focus should not be whole")
	}
	if f.CodeFunction() != "Gsend_message" || f.CodeModule() != "app.c" {
		t.Errorf("code parts: %q %q", f.CodeFunction(), f.CodeModule())
	}
	sp := f.SyncParts()
	if len(sp) != 3 || sp[0] != "Message" || sp[2] != "tag-5" {
		t.Errorf("sync parts = %v", sp)
	}
	if f.String() != "</Code/app.c/Gsend_message,/Machine,/SyncObject/Message/comm-1/tag-5>" {
		t.Errorf("string = %q", f.String())
	}
}

func TestFocusMachineParts(t *testing.T) {
	f := WholeProgram().WithMachine("/Machine/node2/p5")
	if f.MachineNode() != "node2" || f.MachineProcess() != "p5" {
		t.Errorf("machine parts: %q %q", f.MachineNode(), f.MachineProcess())
	}
	g := WholeProgram().WithMachine("/Machine/node2")
	if g.MachineProcess() != "" {
		t.Error("node-level focus has no process")
	}
}

func TestFocusKeyDistinguishes(t *testing.T) {
	a := WholeProgram().WithCode("/Code/x")
	b := WholeProgram().WithSync("/SyncObject/Barrier")
	if a.Canon() == b.Canon() {
		t.Error("different foci must have different canonical forms")
	}
	if a.Canon() != (Focus{CodePath: "/Code/x"}).Canon() {
		t.Error("equal foci must share a canonical form")
	}
}

// Property: Path/AddPath round-trip for arbitrary component names.
func TestPropertyPathRoundTrip(t *testing.T) {
	f := func(raw []string) bool {
		comps := make([]string, 0, len(raw))
		for _, c := range raw {
			c = strings.Map(func(r rune) rune {
				if r == '/' || r == 0 {
					return -1
				}
				return r
			}, c)
			if c != "" {
				comps = append(comps, c)
			}
			if len(comps) == 4 {
				break
			}
		}
		if len(comps) == 0 {
			return true
		}
		h := New()
		n := h.Add(comps...)
		return h.FindPath(n.Path()) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The component accessors cut their answer out of the path by index; they
// must say exactly what splitting the path said, on tidy paths and on ones
// with doubled, leading or trailing slashes.
func TestFocusPartsMatchSplitPath(t *testing.T) {
	at := func(comps []string, i int, exact bool) string {
		if len(comps) > i && (!exact || len(comps) == i+1) {
			return comps[i]
		}
		return ""
	}
	for _, tail := range []string{"", "/", "/a", "/a/", "//a", "/a/b", "/a//b/", "/a/b/c", "a", "/a/b/c/d"} {
		for _, f := range []Focus{{}, {CodePath: "/Code" + tail, MachinePath: "/Machine" + tail}, {CodePath: tail, MachinePath: tail}} {
			code, machine := splitPath(f.Canon().CodePath), splitPath(f.Canon().MachinePath)
			if got, want := f.CodeModule(), at(code, 1, false); got != want {
				t.Errorf("%v: CodeModule = %q, want %q", f, got, want)
			}
			if got, want := f.CodeFunction(), at(code, 2, true); got != want {
				t.Errorf("%v: CodeFunction = %q, want %q", f, got, want)
			}
			if got, want := f.MachineNode(), at(machine, 1, false); got != want {
				t.Errorf("%v: MachineNode = %q, want %q", f, got, want)
			}
			if got, want := f.MachineProcess(), at(machine, 2, true); got != want {
				t.Errorf("%v: MachineProcess = %q, want %q", f, got, want)
			}
		}
	}
	f := WholeProgram().WithCode("/Code/app.c/work").WithMachine("/Machine/node0/p0")
	if n := testing.AllocsPerRun(100, func() { _, _, _, _ = f.CodeModule(), f.CodeFunction(), f.MachineNode(), f.MachineProcess() }); n != 0 {
		t.Errorf("component accessors: %v allocs, want 0", n)
	}
}
