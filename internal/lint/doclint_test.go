package lint

import (
	"fmt"
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
	symRef      = regexp.MustCompile(`(?:^|[^\w./])([a-z]\w*)\.([A-Z]\w*)(?:\.(\w+))?`)
	placeholder = regexp.MustCompile(`<\w+>`)
	braces      = regexp.MustCompile(`\{([^{}]*)\}`)
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

// TestDocLint checks the paths and symbols README.md, DESIGN.md and
// EXPERIMENTS.md cite in code spans.
func TestDocLint(t *testing.T) {
	m := repo(t)
	for _, doc := range docs {
		text, err := os.ReadFile(filepath.Join(m.root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range docProblems(m, doc, string(text)) {
			t.Error(p)
		}
	}
}

// TestDocLintFixture pins each rule on a synthetic document: a live path, a
// path with a placeholder and with alternatives, a package-qualified name,
// and a member all resolve; a missing path, a missing name and a missing
// member are each reported.
func TestDocLintFixture(t *testing.T) {
	m := repo(t)
	text := strings.Join([]string{
		"`internal/lint/doclint_test.go` `cmd/uniconn/testdata/recover-<topology>.golden`",
		"`cmd/uniconn/testdata/recover-{flat,fattree}.golden` `internal/sim.NewEngine`",
		"`sim.Engine.Run` `mpi.Comm.Send(p, buf, dst, tag)` and `sim.events`, a metric",
		"`internal/perfmodel` `mpi.WinCreate` `sim.Engine.Yield` `cmd/uniconn/testdata/recover-{flat,mesh}.golden`",
	}, "\n")
	want := []string{
		"doc:4: no path internal/perfmodel",
		"doc:4: mpi.WinCreate does not resolve",
		"doc:4: sim.Engine.Yield does not resolve",
		"doc:4: no path cmd/uniconn/testdata/recover-{flat,mesh}.golden",
	}
	if got := docProblems(m, "doc", text); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("problems = %q\nwant %q", got, want)
	}
}
