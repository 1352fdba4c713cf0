package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// allowlist names the exported names the ratchet lets stand without a
// caller outside their package, each with the test that uses it. It may
// only shrink: maxAllowlist is its length when the ratchet landed.
var allowlist = map[string]string{
	"buf.Stats.Drops":             "test instrument: gpu's TestReduceAllAliasing and mpi's TestAllreduceDifferential check Gets == Puts+Drops (no leaked staging buffer)",
	"buf.Stats.Pooled":            "test instrument: gpu's TestCloneDrawsFromArenaAndReleaseReturns checks a released clone is pooled",
	"buf.Stats.Puts":              "test instrument: gpu's arena tests and mpi's TestEagerStagingReusesArena check every staging buffer is released",
	"cg.Config.Compute":           "test instrument: bench's TestPhantomEqualsReal runs every Fig 6 cell with real payloads",
	"cg.RunSerial":                "test oracle: cg's TestAllVariantsMatchSerialResidual compares every variant against it",
	"fabric.Fabric.LinkDownAt":    "test instrument: faults' TestApplyHardFaults and TestGeneratedPlansNeverPartition read the installed link downs",
	"fabric.LinkCost.Duration":    "test oracle: lockstep's TestRoundEndsAtSlowestTransfer and machine's TestCostMonotoneInSize derive transfer times from it",
	"jacobi.RunSerial":            "test oracle: jacobi's TestAllVariantsMatchSerialReference compares every variant against it",
	"metrics.SanitizeName":        "test instrument: bench's TestPrometheusNamesInjective sanitizes every registered metric name",
	"sim.Engine.SetTrace":         "test instrument: sim's script tests (runProgram, victimLog) compare scheduler traces",
	"sim.FlightRecorder.Total":    "test instrument: core's TestFlightQuietOnCleanRun checks the attached recorder saw the run",
	"sparse.CSR.Validate":         "test oracle: sparse's TestLaplace3DStructure and TestSyntheticSpecsValidateAndScale check CSR invariants",
	"telemetry.FlightBoard.Dump":  "test instrument: bench's TestRecoverySweepObservability reads the flight board",
	"telemetry.Tracker.Runs":      "test instrument: bench's TestSweepReportsToItsTracker checks the tracked runs",
	"trace.RankBreakdown.Blocked": "test instrument: bench's TestProfileAttributionSums checks each rank's parts sum to the cell end",
	"trace.RankBreakdown.Compute": "test instrument: bench's TestProfileAttributionSums, as Blocked",
	"trace.RankBreakdown.Inter":   "test instrument: bench's TestProfileAttributionSums, as Blocked",
	"trace.RankBreakdown.Intra":   "test instrument: bench's TestProfileAttributionSums, as Blocked",
	"trace.RankBreakdown.Rank":    "test instrument: bench's TestProfileAttributionSums names the failing rank",
	"trace.RankBreakdown.Total":   "test instrument: bench's TestProfileAttributionSums, as Blocked",
}

const maxAllowlist = 20

// A finding is a name a rule flags, with what is wrong and what to do.
type finding struct {
	name    string // "pkg.Name" or "pkg.Type.Member"
	problem string
}

func (f finding) String() string { return f.name + ": " + f.problem }

// The dead-code ratchet's two problems.
const (
	packageOnly = "used only inside its package; unexport it"
	noCaller    = "no caller; delete it"
)

// A decl is one exported name under internal/ and where it is referenced.
type decl struct {
	name    string
	pkg     *pkg
	owner   *types.TypeName // the type a method or field belongs to
	inside  bool
	outside bool
}

// An index maps every exported name under internal/ to its references from
// the non-test files of the module (and every file of the frozen benchmark).
type index struct {
	m     *module
	decls map[types.Object]*decl
	// ifaceUses records, per interface method, the packages calling it, so
	// the concrete methods satisfying it inherit those callers.
	ifaceUses map[*types.Func]map[*pkg]bool
}

// deadNames reports the exported names under internal/ that no non-test
// file outside their package references. Exempt by rule: the methods and
// fields of a type the root package (the facade) aliases, which are the
// public API whether or not anything here calls them, and the types those
// members spell, so that API stays nameable; and a method that satisfies a
// standard-library interface (String, Error, ServeHTTP, ...), which is
// called through it.
func deadNames(m *module) []finding {
	x := &index{m: m, decls: map[types.Object]*decl{}, ifaceUses: map[*types.Func]map[*pkg]bool{}}
	for _, path := range m.sorted() {
		if p := m.pkgs[path]; m.internal(path) {
			for _, f := range p.files {
				x.declare(p, f)
			}
		}
	}
	for id, obj := range m.info.Uses {
		x.use(obj, m.pkgAt(id.Pos()))
	}
	for sel, s := range m.info.Selections {
		x.embedded(s, m.pkgAt(sel.Pos()))
	}
	for _, p := range m.pkgs {
		for _, f := range p.files {
			x.unkeyedLiterals(p, f)
		}
	}
	x.satisfied()
	facade := x.facadeTypes()
	exposed := map[types.Object]bool{}
	for obj, d := range x.decls {
		if d.owner != nil && facade[d.owner] {
			namedIn(obj.Type(), func(tn *types.TypeName) { exposed[tn] = true })
		}
	}
	std := x.stdInterfaces()
	var out []finding
	for obj, d := range x.decls {
		if d.outside || (d.owner != nil && facade[d.owner]) || exposed[obj] || satisfiesStd(d, obj, std) {
			continue
		}
		problem := noCaller
		if d.inside {
			problem = packageOnly
		}
		out = append(out, finding{d.name, problem})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// declare indexes the exported names one file declares: functions,
// methods, types, constants, variables, and the fields and methods of the
// struct and interface types it spells out.
func (x *index) declare(p *pkg, f *ast.File) {
	info := x.m.info
	add := func(obj types.Object, owner *types.TypeName) {
		name := p.types.Name() + "." + obj.Name()
		if owner != nil {
			name = p.types.Name() + "." + owner.Name() + "." + obj.Name()
		}
		x.decls[obj] = &decl{name: name, pkg: p, owner: owner}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			fn := info.Defs[d.Name].(*types.Func)
			add(fn, recvType(fn))
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.ValueSpec:
					for _, id := range s.Names {
						if id.IsExported() {
							add(info.Defs[id], nil)
						}
					}
				case *ast.TypeSpec:
					tn := info.Defs[s.Name].(*types.TypeName)
					if s.Name.IsExported() {
						add(tn, nil)
					}
					switch t := s.Type.(type) {
					case *ast.StructType:
						for _, fld := range t.Fields.List {
							if fld.Tag != nil {
								continue // read through reflection (encoding/json)
							}
							for _, id := range fieldNames(fld) {
								if id.IsExported() {
									add(info.Defs[id], tn)
								}
							}
						}
					case *ast.InterfaceType:
						for _, meth := range t.Methods.List {
							for _, id := range meth.Names {
								if id.IsExported() {
									add(info.Defs[id], tn)
								}
							}
						}
					}
				}
			}
		}
	}
}

// fieldNames is a field's names, or for an embedded field the type name
// that names it.
func fieldNames(f *ast.Field) []*ast.Ident {
	if len(f.Names) > 0 {
		return f.Names
	}
	t := f.Type
	for {
		switch e := t.(type) {
		case *ast.StarExpr:
			t = e.X
		case *ast.SelectorExpr:
			return []*ast.Ident{e.Sel}
		case *ast.IndexExpr:
			t = e.X
		case *ast.IndexListExpr:
			t = e.X
		case *ast.Ident:
			return []*ast.Ident{e}
		default:
			return nil
		}
	}
}

// recvType is the named type a method is declared on, nil for a function.
func recvType(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := types.Unalias(t).(*types.Named); ok {
		return named.Origin().Obj()
	}
	return nil
}

// origin maps a member of an instantiated generic type to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// use records one reference to obj from a file of package from. A
// reference to a member is also one to its type, and so is a reference to
// a function, variable or field whose type names it: a type a caller holds
// through an API earns its exported name there.
func (x *index) use(obj types.Object, from *pkg) {
	obj = origin(obj)
	x.mark(obj, from)
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			if x.ifaceUses[fn] == nil {
				x.ifaceUses[fn] = map[*pkg]bool{}
			}
			x.ifaceUses[fn][from] = true
		}
	}
	switch obj.(type) {
	case *types.Func, *types.Var, *types.Const:
		namedIn(obj.Type(), func(tn *types.TypeName) { x.mark(tn, from) })
	}
}

func (x *index) mark(obj types.Object, from *pkg) {
	d := x.decls[obj]
	if d == nil {
		return
	}
	if from == d.pkg {
		d.inside = true
	} else {
		d.outside = true
	}
	if d.owner != nil {
		x.mark(d.owner, from)
	}
}

// namedIn calls visit for every named type spelled in t, without looking
// through a named type's definition.
func namedIn(t types.Type, visit func(*types.TypeName)) {
	switch t := t.(type) {
	case *types.Alias:
		namedIn(types.Unalias(t), visit)
	case *types.Named:
		visit(t.Origin().Obj())
		for i := 0; i < t.TypeArgs().Len(); i++ {
			namedIn(t.TypeArgs().At(i), visit)
		}
	case *types.Pointer:
		namedIn(t.Elem(), visit)
	case *types.Slice:
		namedIn(t.Elem(), visit)
	case *types.Array:
		namedIn(t.Elem(), visit)
	case *types.Chan:
		namedIn(t.Elem(), visit)
	case *types.Map:
		namedIn(t.Key(), visit)
		namedIn(t.Elem(), visit)
	case *types.Signature:
		namedIn(t.Params(), visit)
		namedIn(t.Results(), visit)
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			namedIn(t.At(i).Type(), visit)
		}
	}
}

// embedded records the embedded fields a promoted selection passes through.
func (x *index) embedded(s *types.Selection, from *pkg) {
	path := s.Index()
	t := s.Recv()
	for _, i := range path[:len(path)-1] {
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return
		}
		f := st.Field(i)
		x.mark(origin(f), from)
		t = f.Type()
	}
}

// unkeyedLiterals records every field of a struct written as an unkeyed
// composite literal.
func (x *index) unkeyedLiterals(p *pkg, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok || len(lit.Elts) == 0 {
			return true
		}
		if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); keyed {
			return true
		}
		tv := x.m.info.Types[lit]
		if tv.Type == nil {
			return true // only in code that does not type-check (TestTypeChecks reports it)
		}
		if st, ok := tv.Type.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				x.mark(origin(st.Field(i)), p)
			}
		}
		return true
	})
}

// satisfied gives each method that satisfies an interface method called in
// the module the callers of that interface method.
func (x *index) satisfied() {
	for obj, d := range x.decls {
		fn, ok := obj.(*types.Func)
		if !ok || d.owner == nil || types.IsInterface(d.owner.Type()) {
			continue
		}
		for im, from := range x.ifaceUses {
			if im.Name() != fn.Name() || !implements(d.owner, im.Type().(*types.Signature).Recv().Type()) {
				continue
			}
			for p := range from {
				x.mark(fn, p)
			}
		}
	}
}

func implements(tn *types.TypeName, iface types.Type) bool {
	it, ok := iface.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	t := tn.Type()
	return types.Implements(t, it) || types.Implements(types.NewPointer(t), it)
}

// facadeTypes is the set of internal types the root package aliases.
func (x *index) facadeTypes() map[*types.TypeName]bool {
	out := map[*types.TypeName]bool{}
	root := x.m.pkgs[x.m.path]
	if root == nil {
		return out
	}
	scope := root.types.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
			if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				out[named.Origin().Obj()] = true
			}
		}
	}
	return out
}

// stdInterfaces is every interface the standard library packages the
// module imports (directly or not) declare, plus error.
func (x *index) stdInterfaces() []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if x.m.pkgs[p.Path()] == nil {
			scope := p.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
						out = append(out, it)
					}
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range x.m.pkgs {
		walk(p.types)
	}
	return out
}

func satisfiesStd(d *decl, obj types.Object, std []*types.Interface) bool {
	if _, ok := obj.(*types.Func); !ok || d.owner == nil {
		return false
	}
	for _, it := range std {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == obj.Name() && implements(d.owner, it) {
				return true
			}
		}
	}
	return false
}

// vet is the ratchet's verdict: every finding not on the allowlist, and
// every allowlist entry that no longer matches a finding (stale: the name
// gained a caller or is gone, so its entry must go too).
func vet(found []finding, allow map[string]string) []string {
	var out []string
	flagged := map[string]bool{}
	for _, f := range found {
		flagged[f.name] = true
		if _, ok := allow[f.name]; !ok {
			out = append(out, f.String())
		}
	}
	for name := range allow {
		if !flagged[name] {
			out = append(out, name+": stale allowlist entry; remove it")
		}
	}
	sort.Strings(out)
	return out
}

// ratchet fails t on every problem vet reports, on an allowlist longer than
// its cap, and on an entry that gives no reason.
func ratchet(t *testing.T, found []finding, allow map[string]string, max int) {
	t.Helper()
	if problems := vet(found, allow); len(problems) > 0 {
		t.Errorf("%d problems:\n\t%s", len(problems), strings.Join(problems, "\n\t"))
	}
	if len(allow) > max {
		t.Errorf("allowlist has %d entries, more than %d: it may only shrink", len(allow), max)
	}
	for name, why := range allow {
		if strings.TrimSpace(why) == "" {
			t.Errorf("allowlist entry %s gives no reason", name)
		}
	}
}

// TestDeadCode is the ratchet: every exported name under internal/ has a
// caller outside its package in a non-test file of the root facade, cmd/,
// examples/, internal/ or the frozen benchmark/, or an allowlist entry.
func TestDeadCode(t *testing.T) {
	ratchet(t, deadNames(repo(t)), allowlist, maxAllowlist)
}

// TestRatchetFixture runs the ratchet over testdata/ratchet, a module with
// one unused exported function, one used only inside its package, an
// uncalled method of a type the facade aliases, and a function only the
// benchmark calls: exactly the first two are flagged.
func TestRatchetFixture(t *testing.T) {
	m, err := load("testdata/ratchet", "fixture")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.errs) > 0 {
		t.Fatal(m.errs)
	}
	got := fmt.Sprint(deadNames(m))
	want := fmt.Sprint([]finding{{"a.Local", packageOnly}, {"a.Unused", noCaller}})
	if got != want {
		t.Errorf("findings = %s, want %s", got, want)
	}
	stale := vet(deadNames(m), map[string]string{"a.Unused": "x", "a.Local": "x", "a.Used": "x"})
	if want := []string{"a.Used: stale allowlist entry; remove it"}; fmt.Sprint(stale) != fmt.Sprint(want) {
		t.Errorf("vet with a stale entry = %q, want %q", stale, want)
	}
}
