package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docs are the prose documents the doc-lint reads. benchmark/README.md is
// frozen with the benchmark module and is not among them.
var docs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

var (
	codeSpan = regexp.MustCompile("`([^`\n]+)`")
	// pathRef is a repository path at the start of a code span. A `<name>`
	// placeholder stands for any one path element, and `{a,b}` for each of
	// its alternatives.
	pathRef = regexp.MustCompile(`^(?:internal|cmd|examples)/[\w./*{},<>-]*`)
	// symRef is pkg.Name or pkg.Type.Member anywhere in a code span, not
	// preceded by a path or another selector.
	symRef = regexp.MustCompile(`(?:^|[^\w./])([a-z]\w*)\.([A-Z]\w*)(?:\.(\w+))?`)
	// identRef is a code span that is one CamelCase identifier (an upper-case
	// initial and a lower-case letter, so GOMAXPROCS is none) or Type.Member.
	identRef    = regexp.MustCompile(`^([A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*)(?:\.([A-Za-z_]\w*))?$`)
	placeholder = regexp.MustCompile(`<\w+>`)
	braces      = regexp.MustCompile(`\{([^{}]*)\}`)
	// cmdRef is a `uniconn <sub> ...` invocation up to any shell operator or
	// comment; flagRef a -flag in it or at the start of a span.
	cmdRef  = regexp.MustCompile(`(?:^|[\s/])uniconn ([a-z]\w*)([^|;&#>]*)`)
	flagRef = regexp.MustCompile(`(?:^|\s)-([a-z][\w-]*)`)
	// creditOn and creditSep join a flag span to the subcommand spans a
	// sentence credits it to: "`-flag` on `uniconn a`, `uniconn b` and `c`".
	creditOn  = regexp.MustCompile(`^\s+(?:flags?\s+)?on\s+$`)
	creditSep = regexp.MustCompile(`^(?:/|,\s+|,?\s+(?:and|or)\s+)$`)
	// registers matches the flag.FlagSet methods that define a flag.
	registers = regexp.MustCompile(`^(?:Bool|Duration|Float64|Int|Int64|String|Text|Uint|Uint64)?(?:Var|Func)?$`)
)

// docProblems lints the code spans of one document against the module: every
// cited path exists, and every pkg.Name whose pkg is a package under
// internal/ resolves.
func docProblems(m *module, doc string, text string) []string {
	pkgs := map[string]*types.Package{}
	for path, p := range m.pkgs {
		if m.internal(path) {
			pkgs[p.types.Name()] = p.types
		}
	}
	var out []string
	for i, line := range strings.Split(text, "\n") {
		at := fmt.Sprintf("%s:%d", doc, i+1)
		for _, span := range codeSpan.FindAllStringSubmatch(line, -1) {
			if p := strings.TrimRight(pathRef.FindString(span[1]), "./,"); p != "" && !pathExists(m, p) {
				out = append(out, fmt.Sprintf("%s: no path %s", at, p))
			}
			for _, ref := range symRef.FindAllStringSubmatch(span[1], -1) {
				pkg := pkgs[ref[1]]
				if pkg == nil {
					continue
				}
				if err := resolve(pkg, ref[2], ref[3]); err != nil {
					out = append(out, fmt.Sprintf("%s: %s", at, err))
				}
			}
		}
	}
	return append(out, flagProblems(subcommandFlags(m), doc, text)...)
}

// identAllowlist names the bare identifiers the documents may cite that the
// module declares nowhere, each with the reason. It may only shrink:
// maxIdentAllowlist is its length when the rule landed.
var identAllowlist = map[string]string{}

const maxIdentAllowlist = 0

// declaredNames maps every name the module declares, at any scope and in its
// test files too, to the objects it names.
func declaredNames(m *module) (map[string][]types.Object, error) {
	test, errs := m.testInfo()
	if len(errs) > 0 {
		return nil, fmt.Errorf("test files do not type-check:\n\t%s", strings.Join(errs, "\n\t"))
	}
	names := map[string][]types.Object{}
	for _, info := range []*types.Info{m.info, test} {
		for id, obj := range info.Defs {
			if obj != nil {
				names[id.Name] = append(names[id.Name], obj)
			}
		}
	}
	return names, nil
}

// identProblems lints the code spans of one document that are a bare
// CamelCase identifier or Type.Member: names must declare the identifier,
// and the member must be a field or method of a type so named. Each finding
// is named by its span, the allowlist's key.
func identProblems(names map[string][]types.Object, doc, text string) []finding {
	declares := func(name, member string) bool {
		for _, obj := range names[name] {
			if member == "" {
				return true
			}
			tn, ok := obj.(*types.TypeName)
			if !ok {
				continue
			}
			t := tn.Type()
			if !types.IsInterface(t) {
				t = types.NewPointer(t)
			}
			if found, _, _ := types.LookupFieldOrMethod(t, true, tn.Pkg(), member); found != nil {
				return true
			}
		}
		return false
	}
	var out []finding
	for i, line := range strings.Split(text, "\n") {
		for _, span := range codeSpan.FindAllStringSubmatch(line, -1) {
			if ref := identRef.FindStringSubmatch(span[1]); ref != nil && !declares(ref[1], ref[2]) {
				out = append(out, finding{span[1], fmt.Sprintf("%s:%d: the module declares no such identifier", doc, i+1)})
			}
		}
	}
	return out
}

// flagProblems lints the command lines of one document: the subcommand and
// every -flag of a `uniconn <sub> ...` code span or fenced shell line, and
// every `-flag` span a sentence credits to subcommands ("`-flag` on
// `uniconn a`/`b`"), must be a subcommand and a flag it defines.
func flagProblems(flags map[string]map[string]bool, doc, text string) []string {
	var out []string
	check := func(at int, sub, flag string) {
		set, ok := flags[sub]
		line := fmt.Sprintf("%s:%d", doc, 1+strings.Count(text[:at], "\n"))
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("%s: no subcommand uniconn %s", line, sub))
		case flag != "" && flag != "h" && flag != "help" && !set[flag]:
			out = append(out, fmt.Sprintf("%s: uniconn %s has no flag -%s", line, sub, flag))
		}
	}
	// The spans: code spans in prose, whole lines in fenced blocks (inline
	// marks fenced lines false: only inline spans credit flags).
	type span struct {
		start, end int
		inline     bool
	}
	var spans []span
	fenced := false
	for off := 0; off < len(text); {
		end := strings.IndexByte(text[off:], '\n')
		if end < 0 {
			end = len(text) - off
		}
		line := text[off : off+end]
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			fenced = !fenced
		case fenced:
			spans = append(spans, span{off, off + end, false})
		default:
			for _, m := range codeSpan.FindAllStringSubmatchIndex(line, -1) {
				spans = append(spans, span{off + m[2], off + m[3], true})
			}
		}
		off += end + 1
	}
	// between is the prose from span i's closing backtick to span i+1's
	// opening one, or "" when either is not an inline span.
	between := func(i int) string {
		if i+1 >= len(spans) || !spans[i].inline || !spans[i+1].inline {
			return ""
		}
		return text[spans[i].end+1 : spans[i+1].start-1]
	}
	for i, s := range spans {
		body := text[s.start:s.end]
		if m := cmdRef.FindStringSubmatch(body); m != nil {
			check(s.start, m[1], "")
			for _, f := range flagRef.FindAllStringSubmatch(m[2], -1) {
				check(s.start, m[1], f[1])
			}
			continue
		}
		f := flagRef.FindStringSubmatch(body)
		if f == nil || body[0] != '-' || !creditOn.MatchString(between(i)) {
			continue
		}
		for j := i + 1; j < len(spans); j++ {
			sub := strings.TrimPrefix(text[spans[j].start:spans[j].end], "uniconn ")
			if flags[sub] == nil {
				break
			}
			check(spans[j].start, sub, f[1])
			if !creditSep.MatchString(between(j)) {
				break
			}
		}
	}
	return out
}

// subcommandFlags maps each uniconn subcommand (the cmd/uniconn subcommands
// table) to the flags its function defines on its flag set, directly or
// through a module function it hands the flag set to (spec.Common,
// spec.CommonFlags.Sizes, ...).
func subcommandFlags(m *module) map[string]map[string]bool {
	decls := map[*types.Func]*ast.FuncDecl{}
	var table *ast.CompositeLit
	for _, p := range m.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if fn, ok := m.info.Defs[d.Name].(*types.Func); ok && d.Body != nil {
						decls[fn] = d
					}
				case *ast.GenDecl:
					for _, sp := range d.Specs {
						if vs, ok := sp.(*ast.ValueSpec); ok && p.path == m.path+"/cmd/uniconn" && vs.Names[0].Name == "subcommands" {
							table = vs.Values[0].(*ast.CompositeLit)
						}
					}
				}
			}
		}
	}
	isFlagSet := func(t types.Type) bool { return types.TypeString(t, nil) == "*flag.FlagSet" }
	memo := map[*types.Func]map[string]bool{}
	var flagsOf func(fn *types.Func) map[string]bool
	flagsOf = func(fn *types.Func) map[string]bool {
		if set, ok := memo[fn]; ok {
			return set
		}
		set := map[string]bool{}
		memo[fn] = set
		ast.Inspect(decls[fn].Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var id *ast.Ident
			switch f := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				id = f
			case *ast.SelectorExpr:
				id = f.Sel
			}
			callee, _ := m.info.Uses[id].(*types.Func)
			if callee == nil {
				return true
			}
			if recv := callee.Type().(*types.Signature).Recv(); recv != nil && isFlagSet(recv.Type()) {
				if registers.MatchString(callee.Name()) {
					for _, arg := range call.Args {
						if v := m.info.Types[arg].Value; v != nil && v.Kind() == constant.String {
							set[constant.StringVal(v)] = true
							break
						}
					}
				}
				return true
			}
			if decls[callee.Origin()] == nil {
				return true
			}
			for _, arg := range call.Args {
				if isFlagSet(m.info.Types[arg].Type) {
					for f := range flagsOf(callee.Origin()) {
						set[f] = true
					}
					break
				}
			}
			return true
		})
		return set
	}
	out := map[string]map[string]bool{}
	for _, e := range table.Elts {
		row := e.(*ast.CompositeLit)
		name := constant.StringVal(m.info.Types[row.Elts[0]].Value)
		out[name] = flagsOf(m.info.Uses[row.Elts[1].(*ast.Ident)].(*types.Func))
	}
	return out
}

// pathExists reports whether every expansion of the cited path names a
// file, or a package directory followed by one of its names
// (internal/core.Launch).
func pathExists(m *module, cited string) bool {
	pattern := placeholder.ReplaceAllString(cited, "*")
	expansions := []string{pattern}
	if b := braces.FindStringSubmatchIndex(pattern); b != nil {
		expansions = nil
		for _, alt := range strings.Split(pattern[b[2]:b[3]], ",") {
			expansions = append(expansions, pattern[:b[0]]+alt+pattern[b[1]:])
		}
	}
	for _, p := range expansions {
		if matches, _ := filepath.Glob(filepath.Join(m.root, filepath.FromSlash(p))); len(matches) > 0 {
			continue
		}
		dir, sym, _ := strings.Cut(p, ".")
		name, member, _ := strings.Cut(sym, ".")
		if pkg := m.pkgs[m.path+"/"+dir]; pkg != nil && name != "" && resolve(pkg.types, name, member) == nil {
			continue
		}
		return false
	}
	return true
}

// resolve finds name in pkg and, when member is set, a field or method of
// that name on it.
func resolve(pkg *types.Package, name, member string) error {
	obj := pkg.Scope().Lookup(name)
	if obj == nil {
		return fmt.Errorf("%s.%s does not resolve", pkg.Name(), name)
	}
	if member == "" {
		return nil
	}
	if _, ok := obj.(*types.TypeName); !ok {
		return fmt.Errorf("%s.%s.%s: %s is not a type", pkg.Name(), name, member, name)
	}
	if found, _, _ := types.LookupFieldOrMethod(types.NewPointer(obj.Type()), true, pkg, member); found == nil {
		return fmt.Errorf("%s.%s.%s does not resolve", pkg.Name(), name, member)
	}
	return nil
}

// TestDocLint checks the paths, symbols, bare identifiers and uniconn
// command lines README.md, DESIGN.md and EXPERIMENTS.md cite in code spans.
func TestDocLint(t *testing.T) {
	m := repo(t)
	names, err := declaredNames(m)
	if err != nil {
		t.Fatal(err)
	}
	var idents []finding
	for _, doc := range docs {
		text, err := os.ReadFile(filepath.Join(m.root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range docProblems(m, doc, string(text)) {
			t.Error(p)
		}
		idents = append(idents, identProblems(names, doc, string(text))...)
	}
	ratchet(t, idents, identAllowlist, maxIdentAllowlist)
}

// TestDocLintFixture pins each rule on a synthetic document: a live path, a
// path with a placeholder and with alternatives, a package-qualified name,
// a member, a command line and a credited flag all resolve; a missing path,
// a missing name, a missing member, a missing subcommand and a flag the
// subcommand does not define, in a span, a credit or a fenced line, are
// each reported.
func TestDocLintFixture(t *testing.T) {
	m := repo(t)
	text := strings.Join([]string{
		"`internal/lint/doclint_test.go` `cmd/uniconn/testdata/recover-<topology>.golden`",
		"`cmd/uniconn/testdata/recover-{flat,fattree}.golden` `internal/sim.NewEngine`",
		"`sim.Engine.Run` `mpi.Comm.Send(p, buf, dst, tag)` and `sim.events`, a metric",
		"`internal/perfmodel` `mpi.WinCreate` `sim.Engine.Yield` `cmd/uniconn/testdata/recover-{flat,mesh}.golden`",
		"`go run ./cmd/uniconn netbench -inter -topology fattree:8` and the `-topology` flag on `uniconn netbench`,",
		"`uniconn chaos` and `scale`; `uniconn <subcommand> -h` lists them",
		"`-compute` on `uniconn jacobi`/`cg`, `uniconn experiments -workers 1`, `uniconn frobnicate`",
		"```sh",
		"go run ./cmd/uniconn chaos -recover -live 127.0.0.1:9187 -flight 256 -shards 2 &",
		"```",
	}, "\n")
	want := []string{
		"doc:4: no path internal/perfmodel",
		"doc:4: mpi.WinCreate does not resolve",
		"doc:4: sim.Engine.Yield does not resolve",
		"doc:4: no path cmd/uniconn/testdata/recover-{flat,mesh}.golden",
		"doc:7: uniconn cg has no flag -compute",
		"doc:7: uniconn experiments has no flag -workers",
		"doc:7: no subcommand uniconn frobnicate",
		"doc:9: uniconn chaos has no flag -shards",
	}
	if got := docProblems(m, "doc", text); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("problems = %q\nwant %q", got, want)
	}
}

// TestDocIdentFixture pins the bare-identifier rule on a synthetic document:
// a type, an exported and an unexported method, a field and a test function
// all resolve — one declared in a package of test files alone, as this one
// is — and neither an all-caps word nor a package-qualified name is read as
// one; a name declared nowhere (SerenaLike) and a member its type does not
// have are each reported.
func TestDocIdentFixture(t *testing.T) {
	m := repo(t)
	names, err := declaredNames(m)
	if err != nil {
		t.Fatal(err)
	}
	text := strings.Join([]string{
		"`SyntheticSPDSpec` `SerenaLike` `View.walk` `Log.Sorted` `Config.Metrics`",
		"`TestRepeatFolds` `GOMAXPROCS` `json.Decoder` `View.Frobnicate`",
		"`TestDocLint` `TestStdout`",
	}, "\n")
	want := []finding{
		{"SerenaLike", "doc:1: the module declares no such identifier"},
		{"View.Frobnicate", "doc:2: the module declares no such identifier"},
	}
	if got := identProblems(names, "doc", text); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("problems = %s\nwant %s", got, want)
	}
}

var (
	// openItem heads an open ROADMAP item ("12. **Title"), subItem a lettered
	// part of one ("- **(a) Title"), parkedItem a parked one ("- **8b. Title").
	openItem   = regexp.MustCompile(`(?m)^(\d+)\. \*\*`)
	subItem    = regexp.MustCompile(`\*\*\(([a-z])\)`)
	parkedItem = regexp.MustCompile(`(?m)^- \*\*(\d+)([a-z])\.`)
	// In the closed-items paragraphs, an item is any number or number-letter,
	// "7a–7c" naming a run of parts; asides in parentheses, PR numbers and
	// quoted citations are not items.
	closedNoise = regexp.MustCompile(`\([^)]*\)|PRs? [\d–-]+|"ROADMAP [^"]*"`)
	closedItem  = regexp.MustCompile(`\b(\d+)([a-z])?(?:–(?:\d+)?([a-z]))?\b`)
	// citation is a reference to an item by number.
	citation = regexp.MustCompile(`ROADMAP (\d+[a-z]?)\b`)
)

// roadmapItems returns the ids ("12", "13a") of every item ROADMAP.md lists,
// open, parked or closed.
func roadmapItems(roadmap string) map[string]bool {
	items := map[string]bool{}
	heads := openItem.FindAllStringSubmatchIndex(roadmap, -1)
	for i, h := range heads {
		n, end := roadmap[h[2]:h[3]], len(roadmap)
		if i+1 < len(heads) {
			end = heads[i+1][0]
		}
		if j := strings.Index(roadmap[h[0]:end], "\n#"); j >= 0 {
			end = h[0] + j
		}
		items[n] = true
		for _, s := range subItem.FindAllStringSubmatch(roadmap[h[0]:end], -1) {
			items[n+s[1]] = true
		}
	}
	for _, p := range parkedItem.FindAllStringSubmatch(roadmap, -1) {
		items[p[1]], items[p[1]+p[2]] = true, true
	}
	if _, closed, ok := strings.Cut(roadmap, "Closed items"); ok {
		if h := openItem.FindStringIndex(closed); h != nil {
			closed = closed[:h[0]]
		}
		for _, c := range closedItem.FindAllStringSubmatch(closedNoise.ReplaceAllString(closed, ""), -1) {
			items[c[1]] = true
			if c[2] == "" {
				continue
			}
			last := c[2][0]
			if c[3] != "" {
				last = c[3][0]
			}
			for x := c[2][0]; x <= last; x++ {
				items[c[1]+string(x)] = true
			}
		}
	}
	return items
}

// citationProblems reports every "ROADMAP <n>[letter]" in text, whose first
// line is line first of doc, that names no item of items.
func citationProblems(items map[string]bool, doc string, first int, text string) []string {
	var out []string
	for i, line := range strings.Split(text, "\n") {
		for _, c := range citation.FindAllStringSubmatch(line, -1) {
			if !items[c[1]] {
				out = append(out, fmt.Sprintf("%s:%d: ROADMAP %s is no item of ROADMAP.md", doc, first+i, c[1]))
			}
		}
	}
	return out
}

// TestRoadmapCitations checks that every item README.md, DESIGN.md,
// EXPERIMENTS.md and the comments of the Go sources cite as "ROADMAP <n>" or
// "ROADMAP <n><letter>" is one ROADMAP.md lists, open, parked or closed:
// renumbering an item must carry its citations along.
func TestRoadmapCitations(t *testing.T) {
	m := repo(t)
	roadmap, err := os.ReadFile(filepath.Join(m.root, "ROADMAP.md"))
	if err != nil {
		t.Fatal(err)
	}
	items := roadmapItems(string(roadmap))
	for _, doc := range docs {
		text, err := os.ReadFile(filepath.Join(m.root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range citationProblems(items, doc, 1, string(text)) {
			t.Error(p)
		}
	}
	fset := token.NewFileSet()
	err = filepath.WalkDir(m.root, func(path string, d os.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != m.root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(m.root, path)
		for _, g := range f.Comments {
			for _, c := range g.List {
				for _, p := range citationProblems(items, rel, fset.Position(c.Pos()).Line, c.Text) {
					t.Error(p)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRoadmapCitationsFixture pins the item rules on a synthetic ROADMAP: open
// items and their lettered parts, a parked item, closed items with a run of
// parts, and a quoted stale citation, which lists nothing.
func TestRoadmapCitationsFixture(t *testing.T) {
	roadmap := strings.Join([]string{
		"Closed items are not repeated here:",
		"- 1, 7a–7c and 16 (PRs 12–31).",
		`- **5c** (PR 28). DESIGN.md cites "ROADMAP 9d".`,
		"",
		"9. **Ledger.**",
		"   - **(a) ab.**",
		"12. **Fast-forward.**",
		"### Parked",
		"- **8b. Skeletons.**",
	}, "\n")
	text := "ROADMAP 1, ROADMAP 7b, ROADMAP 5c, ROADMAP 9a, ROADMAP 12, ROADMAP 8b\nROADMAP 9d ROADMAP 31 ROADMAP 7d ROADMAP 12a"
	want := []string{
		"doc:2: ROADMAP 9d is no item of ROADMAP.md",
		"doc:2: ROADMAP 31 is no item of ROADMAP.md",
		"doc:2: ROADMAP 7d is no item of ROADMAP.md",
		"doc:2: ROADMAP 12a is no item of ROADMAP.md",
	}
	if got := citationProblems(roadmapItems(roadmap), "doc", 1, text); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("problems = %q\nwant %q", got, want)
	}
}
