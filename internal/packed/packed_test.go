package packed

import (
	"fmt"
	"testing"
	"unsafe"
)

// A Table keeps exactly MaxInterned strings: it fills to the cap, shares
// what it kept, and past the cap still returns each string, unshared.
func TestTableIsCappedAtMaxInterned(t *testing.T) {
	var tb Table
	name := func(i int) []byte { return []byte(fmt.Sprintf("prog{%d}", i)) }
	first := tb.intern(name(0))
	for i := 1; i < MaxInterned+100; i++ {
		if s := tb.intern(name(i)); s != string(name(i)) {
			t.Fatalf("intern(%q) = %q", name(i), s)
		}
	}
	if len(tb.strs) != MaxInterned {
		t.Errorf("table holds %d strings after %d distinct ones, want the cap %d", len(tb.strs), MaxInterned+100, MaxInterned)
	}
	if s := tb.intern(name(0)); unsafe.StringData(s) != unsafe.StringData(first) {
		t.Error("a string kept before the cap is not shared")
	}
	past := name(MaxInterned)
	if a, b := tb.intern(past), tb.intern(past); unsafe.StringData(a) == unsafe.StringData(b) {
		t.Errorf("%s, met past the cap, is shared", past)
	}
}
