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
// non-test code writes — as an assignment target, with ++/--, or as a
// composite-literal key — and that no file reads, test files included. A
// field is read by any other reference, and every field of a struct type
// compared with == or != or used as a map key is read by the comparison.
// Exempt by rule: tagged fields (read through reflection by encoding/json)
// and embedded fields (their promoted members and methods are their reads).
func writeOnlyFields(m *module) ([]finding, error) {
	names := map[token.Pos]string{}
	for path, p := range m.pkgs {
		if m.internal(path) {
			for _, f := range p.files {
				declareFields(p.types.Name(), f, names)
			}
		}
	}
	written, read := map[token.Pos]bool{}, map[token.Pos]bool{}
	for _, p := range m.pkgs {
		for _, f := range p.files {
			test := strings.HasSuffix(m.fset.File(f.Pos()).Name(), "_test.go")
			accesses(m.info, f, !test, written, read)
		}
	}
	info, errs := m.testInfo()
	if len(errs) > 0 {
		return nil, fmt.Errorf("test files do not type-check:\n\t%s", strings.Join(errs, "\n\t"))
	}
	for _, p := range m.pkgs {
		for _, f := range append(p.tests, p.xtests...) {
			accesses(info, f, false, written, read)
		}
	}
	for _, in := range []*types.Info{m.info, info} {
		for _, tv := range in.Types {
			if mt, ok := tv.Type.(*types.Map); ok { // a map type expression
				readAll(mt.Key(), read)
			}
		}
	}
	var out []finding
	for pos, name := range names {
		if written[pos] && !read[pos] {
			out = append(out, finding{name, "written, never read; delete it"})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
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

// accesses records the field reads in f and, when writes counts, its field
// writes.
func accesses(info *types.Info, f *ast.File, writes bool, written, read map[token.Pos]bool) {
	target := map[*ast.Ident]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
					target[sel.Sel] = true
				}
			}
		case *ast.IncDecStmt:
			if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
				target[sel.Sel] = true
			}
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				target[id] = true
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				readAll(info.Types[n.X].Type, read)
			}
		case *ast.Ident:
			v, ok := info.Uses[n].(*types.Var)
			if !ok || !v.IsField() {
				break
			}
			if !target[n] {
				read[v.Pos()] = true
			} else if writes {
				written[v.Pos()] = true
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
// beside a map-key and a compared struct: exactly the first is flagged.
func TestWriteOnlyFixture(t *testing.T) {
	m, err := load("testdata/ratchet", "fixture")
	if err != nil {
		t.Fatal(err)
	}
	got, err := writeOnlyFields(m)
	if err != nil {
		t.Fatal(err)
	}
	if want := "[a.rec.written: written, never read; delete it]"; fmt.Sprint(got) != want {
		t.Errorf("findings = %s, want %s", got, want)
	}
}
