package lint

import (
	"fmt"
	"go/token"
	"testing"
)

// neverWrittenAllowlist names the never-written fields the rule lets stand,
// each with the reason. It may only shrink: maxNeverWrittenAllowlist is its
// length when the rule landed.
var neverWrittenAllowlist = map[string]string{}

const maxNeverWrittenAllowlist = 0

// neverWrittenFields reports the struct fields declared under internal/ that
// non-test code reads and that no file writes, test files included: every
// read sees the zero value. A write is an assignment, ++/--, a
// composite-literal key, a positional element of an unkeyed composite
// literal, or taking the field's address (explicitly, through a pointer
// method, or by assigning inside it). Exempt by rule, as for the write-only
// rule: tagged fields (written by encoding/json's decoding) and embedded
// fields.
func neverWrittenFields(m *module) ([]finding, error) {
	u, err := scanFields(m)
	if err != nil {
		return nil, err
	}
	written := func(a access, pos token.Pos) bool { return a.assigned[pos] || a.written[pos] }
	return u.flag(func(pos token.Pos) bool {
		return u.code.read[pos] && !written(u.code, pos) && !written(u.tests, pos)
	}, "read, never written (always zero); delete it"), nil
}

// TestNeverWrittenFields fails on any struct field under internal/ that
// non-test code reads and no file writes: delete it, or write it.
func TestNeverWrittenFields(t *testing.T) {
	found, err := neverWrittenFields(repo(t))
	if err != nil {
		t.Fatal(err)
	}
	ratchet(t, found, neverWrittenAllowlist, maxNeverWrittenAllowlist)
}

// TestNeverWrittenFixture runs the rule over testdata/ratchet, whose rec has
// a field read and never written beside fields written by assignment, by a
// test file, through their address, through a pointer method and
// positionally: exactly the first is flagged.
func TestNeverWrittenFixture(t *testing.T) {
	m, err := load("testdata/ratchet", "fixture")
	if err != nil {
		t.Fatal(err)
	}
	got, err := neverWrittenFields(m)
	if err != nil {
		t.Fatal(err)
	}
	if want := "[a.rec.never: read, never written (always zero); delete it]"; fmt.Sprint(got) != want {
		t.Errorf("findings = %s, want %s", got, want)
	}
}
