package packed

import (
	"encoding/binary"
	"fmt"
	"testing"
	"unsafe"
)

// A Table keeps exactly MaxInterned strings: it fills to the cap, shares
// what it kept, and past the cap still returns each string, unshared.
func TestTableIsCappedAtMaxInterned(t *testing.T) {
	var tb Table
	name := func(i int) []byte { return []byte(fmt.Sprintf("prog{%d}", i)) }
	// intern resolves a one-entry dictionary.
	intern := func(b []byte) string {
		tb.resolve(append(binary.AppendUvarint(nil, uint64(len(b))), b...), 1)
		return tb.dict[0]
	}
	first := intern(name(0))
	for i := 1; i < MaxInterned+100; i++ {
		if s := intern(name(i)); s != string(name(i)) {
			t.Fatalf("intern(%q) = %q", name(i), s)
		}
	}
	if len(tb.strs) != MaxInterned {
		t.Errorf("table holds %d strings after %d distinct ones, want the cap %d", len(tb.strs), MaxInterned+100, MaxInterned)
	}
	if s := intern(name(0)); unsafe.StringData(s) != unsafe.StringData(first) {
		t.Error("a string kept before the cap is not shared")
	}
	past := name(MaxInterned)
	if a, b := intern(past), intern(past); unsafe.StringData(a) == unsafe.StringData(b) {
		t.Errorf("%s, met past the cap, is shared", past)
	}
}

// The entries of a blob's dictionary the table lacks share one string, and
// an entry it holds is the one it kept.
func TestNewEntriesShareOneString(t *testing.T) {
	var w Writer
	w.Reset()
	for _, s := range []string{"MPI_Send", "app{0}", "node0"} {
		w.Intern(s)
	}
	var tb Table
	tb.resolve(w.Head(nil, 0)[2:], 1) // "MPI_Send" alone, kept
	kept := tb.dict[0]
	r, _ := Open(&tb, w.Head(nil, 0), "test", 1)
	if r.Err != nil || len(r.Dict) != 3 || r.Dict[0] != "MPI_Send" || r.Dict[1] != "app{0}" || r.Dict[2] != "node0" {
		t.Fatalf("dictionary %q (%v)", r.Dict, r.Err)
	}
	if unsafe.StringData(r.Dict[0]) != unsafe.StringData(kept) {
		t.Error("an entry the table holds is not the string it kept")
	}
	if a, b := unsafe.StringData(r.Dict[1]), unsafe.StringData(r.Dict[2]); uintptr(unsafe.Pointer(b))-uintptr(unsafe.Pointer(a)) != uintptr(len("app{0}")+1) {
		t.Error("the two new entries are not one string")
	}
}
