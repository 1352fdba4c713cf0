package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// writeOnlyAllowlist names the write-only fields the rule lets stand, each
// with the reason. It may only shrink: maxWriteOnlyAllowlist is its length
// when the rule landed.
var writeOnlyAllowlist = map[string]string{
	"bench.NetConfig.Shards":   "inert: only the frozen benchmark/ writes it (Shards: -1); it goes with those writes",
	"bench.ScaleConfig.Shards": "inert: only the frozen benchmark/ writes it (Shards: -1); it goes with those writes",
	"cg.Config.Shards":         "inert: only the frozen benchmark/ writes it (Shards: -1); it goes with those writes",
	"core.Config.Shards":       "inert: only the frozen benchmark/ writes it (Shards: -1); it goes with those writes",
	"gpu.KernelCtx.Args":       "public API (paper Listing 4): what Coordinator.BindKernel binds reaches a kernel body here; the repository's kernels capture their state in closures",
}

const maxWriteOnlyAllowlist = 5

// writeOnlyFields reports the struct fields declared under internal/ that
// non-test code writes — as an assignment target, with ++/--, as a
// composite-literal key or positionally in an unkeyed composite literal —
// and that no file reads, test files included. A
// field is read by any other reference, and every field of a struct type
// compared with == or != or used as a map key is read by the comparison.
// Exempt by rule: tagged fields (read through reflection by encoding/json)
// and embedded fields (their promoted members and methods are their reads).
func writeOnlyFields(m *module) ([]finding, error) {
	u, err := scanFields(m)
	if err != nil {
		return nil, err
	}
	return u.flag(func(pos token.Pos) bool {
		return u.code.assigned[pos] && !u.code.read[pos] && !u.tests.read[pos]
	}, "written, never read; delete it"), nil
}

// fieldUses is how the module uses each struct field declared under
// internal/ (keyed by the field's position): by its non-test files (code,
// the frozen benchmark's tests included) and by its test files apart.
type fieldUses struct {
	names       map[token.Pos]string
	code, tests access
}

// access records, per field, the files that assign it (an assignment target,
// ++/--, a composite-literal key, a positional element of an unkeyed
// composite literal), that write it any other way (through its address),
// and that read it.
type access struct {
	assigned, written, read map[token.Pos]bool
}

func newAccess() access {
	return access{assigned: map[token.Pos]bool{}, written: map[token.Pos]bool{}, read: map[token.Pos]bool{}}
}

// scanFields indexes the module's struct fields and records every access to
// them.
func scanFields(m *module) (*fieldUses, error) {
	u := &fieldUses{names: map[token.Pos]string{}, code: newAccess(), tests: newAccess()}
	for path, p := range m.pkgs {
		if m.internal(path) {
			for _, f := range p.files {
				declareFields(p.types.Name(), f, u.names)
			}
		}
	}
	for _, p := range m.pkgs {
		for _, f := range p.files {
			a := u.code
			if strings.HasSuffix(m.fset.File(f.Pos()).Name(), "_test.go") {
				a = u.tests
			}
			accesses(m.info, f, a)
		}
	}
	info, errs := m.testInfo()
	if len(errs) > 0 {
		return nil, fmt.Errorf("test files do not type-check:\n\t%s", strings.Join(errs, "\n\t"))
	}
	for _, p := range m.pkgs {
		for _, f := range append(p.tests, p.xtests...) {
			accesses(info, f, u.tests)
		}
	}
	for in, a := range map[*types.Info]access{m.info: u.code, info: u.tests} {
		for _, tv := range in.Types {
			if mt, ok := tv.Type.(*types.Map); ok { // a map type expression
				readAll(mt.Key(), a.read)
			}
		}
	}
	return u, nil
}

// flag reports, sorted, every indexed field that bad selects.
func (u *fieldUses) flag(bad func(token.Pos) bool, problem string) []finding {
	var out []finding
	for pos, name := range u.names {
		if bad(pos) {
			out = append(out, finding{name, problem})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// declareFields indexes the untagged, named fields of every struct type f
// spells out, as pkg.Type.field (pkg.struct.field for an anonymous struct).
func declareFields(pkg string, f *ast.File, names map[token.Pos]string) {
	owner := map[*ast.StructType]string{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeSpec:
			if st, ok := n.Type.(*ast.StructType); ok {
				owner[st] = n.Name.Name
			}
		case *ast.StructType:
			typ := owner[n]
			if typ == "" {
				typ = "struct"
			}
			for _, fld := range n.Fields.List {
				if fld.Tag != nil {
					continue
				}
				for _, id := range fld.Names {
					names[id.Pos()] = pkg + "." + typ + "." + id.Name
				}
			}
		}
		return true
	})
}

// accesses records the field accesses in f. A field an assignment, ++/-- or
// a composite-literal key targets is assigned, and an unkeyed composite
// literal assigns every field of its struct; every other reference reads
// it. A field is also written, while still read, where the write goes
// through it: its address is taken (&x.f, or x.f.M() for a pointer method
// M), or an assignment targets something inside it (x.f.g = v, x.f[i] = v).
func accesses(info *types.Info, f *ast.File, a access) {
	target := map[*ast.Ident]bool{}
	through := func(e ast.Expr) { // mark the fields a write passes through
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.IsField() {
					a.written[v.Pos()] = true
				}
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			default:
				return
			}
		}
	}
	assign := func(lhs ast.Expr) {
		switch x := ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr:
			target[x.Sel] = true
			through(x.X)
		case *ast.IndexExpr:
			through(x.X)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				assign(lhs)
			}
		case *ast.IncDecStmt:
			assign(n.X)
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				target[id] = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				through(n.X)
			}
		case *ast.SelectorExpr:
			if s := info.Selections[n]; s != nil && s.Kind() == types.MethodVal {
				_, ptrRecv := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
				if _, ptrX := s.Recv().Underlying().(*types.Pointer); ptrRecv && !ptrX {
					through(n.X) // x.f.M() takes &x.f
				}
			}
		case *ast.CompositeLit:
			if len(n.Elts) == 0 {
				break
			}
			if _, keyed := n.Elts[0].(*ast.KeyValueExpr); keyed {
				break
			}
			if tv, ok := info.Types[n]; ok {
				if st, ok := tv.Type.Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						a.assigned[st.Field(i).Pos()] = true
					}
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				readAll(info.Types[n.X].Type, a.read)
			}
		case *ast.Ident:
			v, ok := info.Uses[n].(*types.Var)
			if !ok || !v.IsField() {
				break
			}
			if target[n] {
				a.assigned[v.Pos()] = true
			} else {
				a.read[v.Pos()] = true
			}
		}
		return true
	})
}

// readAll marks every field a comparison of t reads.
func readAll(t types.Type, read map[token.Pos]bool) {
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			read[u.Field(i).Pos()] = true
			readAll(u.Field(i).Type(), read)
		}
	case *types.Array:
		readAll(u.Elem(), read)
	}
}

// TestWriteOnlyFields fails on any struct field under internal/ that
// non-test code writes and no file reads: delete it, or read it.
func TestWriteOnlyFields(t *testing.T) {
	found, err := writeOnlyFields(repo(t))
	if err != nil {
		t.Fatal(err)
	}
	ratchet(t, found, writeOnlyAllowlist, maxWriteOnlyAllowlist)
}

// TestWriteOnlyFixture runs the rule over testdata/ratchet, whose rec has a
// field written and never read, one written and read, a tagged one, one read
// only by a test file, one written only by a test file and an embedded one,
// beside a map-key and a compared struct, and whose mark is written only
// positionally with one field never read: exactly rec's first field and
// that one are flagged.
func TestWriteOnlyFixture(t *testing.T) {
	m, err := load("testdata/ratchet", "fixture")
	if err != nil {
		t.Fatal(err)
	}
	got, err := writeOnlyFields(m)
	if err != nil {
		t.Fatal(err)
	}
	if want := "[a.mark.tag: written, never read; delete it a.rec.written: written, never read; delete it]"; fmt.Sprint(got) != want {
		t.Errorf("findings = %s, want %s", got, want)
	}
}
