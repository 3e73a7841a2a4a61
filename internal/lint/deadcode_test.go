package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// This file is `make deadcode`: a whole-tree check (vet analyzers see one
// package at a time; this needs them all, so it runs as a test) that no
// exported identifier under internal/ is kept alive by tests alone —
// which is how a deleted feature's helpers outlive it. deadcode.allow
// lists the exceptions, one "finding reason…" per line.

// deadcode lists the exported functions, types, constants, variables and
// methods declared under root's internal/ that no non-test .go file of
// the tree — the nested benchmark module included — mentions outside the
// declaration itself.
//
// The match is by name, not by type: a package-level identifier is used
// when its own package names it or another file selects it through an
// import of its package; a method is used when anything selects or any
// interface declares a method of that name. That errs towards "used".
// Findings read "import/path.Name" or "import/path.Type.Method", sorted.
func deadcode(root string) ([]string, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	module := strings.TrimSpace(strings.TrimPrefix(strings.SplitN(string(mod), "\n", 2)[0], "module"))

	declared := make(map[string]bool) // finding -> is a method
	declIdent := make(map[*ast.Ident]bool)
	used := make(map[string]bool)     // "import/path.Name"
	selected := make(map[string]bool) // method and field names selected or required anywhere
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); n == "testdata" || n == "bin" || (strings.HasPrefix(n, ".") && file != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") || isTestFile(file) {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(file))
		pkg := path.Join(module, filepath.ToSlash(rel))
		if strings.HasPrefix(filepath.ToSlash(rel)+"/", "internal/") {
			declare := func(id *ast.Ident, recv string) {
				if id.IsExported() {
					declared[pkg+"."+recv+id.Name] = recv != ""
					declIdent[id] = true
				}
			}
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					recv := ""
					if decl.Recv != nil {
						t := decl.Recv.List[0].Type
						if star, ok := t.(*ast.StarExpr); ok {
							t = star.X
						}
						if ix, ok := t.(*ast.IndexExpr); ok {
							t = ix.X
						}
						id, ok := t.(*ast.Ident)
						if !ok || !id.IsExported() {
							continue
						}
						recv = id.Name + "."
					}
					declare(decl.Name, recv)
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							declare(spec.Name, "")
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								declare(id, "")
							}
						}
					}
				}
			}
		}
		imports := make(map[string]string)
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selected[n.Sel.Name] = true
				if q, ok := n.X.(*ast.Ident); ok && imports[q.Name] != "" {
					used[imports[q.Name]+"."+n.Sel.Name] = true
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						selected[id.Name] = true
					}
				}
			case *ast.Ident:
				if !declIdent[n] {
					used[pkg+"."+n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	var dead []string
	for name, method := range declared {
		if method && !selected[name[strings.LastIndexByte(name, '.')+1:]] || !method && !used[name] {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	return dead, nil
}

// deadcodeUnlisted checks findings against an allowlist — one
// "finding reason…" per line, # comments — and returns what fails the
// build: findings that are not listed, entries without a reason, and
// entries that are no longer findings.
func deadcodeUnlisted(findings []string, allowlist string) []string {
	allowed := make(map[string]bool)
	var out []string
	for _, line := range strings.Split(allowlist, "\n") {
		name, reason, _ := strings.Cut(strings.TrimSpace(line), " ")
		if name == "" || strings.HasPrefix(name, "#") {
			continue
		}
		allowed[name] = true
		if strings.TrimSpace(reason) == "" {
			out = append(out, fmt.Sprintf("%s: allowlisted without a reason", name))
		}
	}
	for _, f := range findings {
		if !allowed[f] {
			out = append(out, fmt.Sprintf("%s: exported, but only tests (or nothing) use it — delete it, unexport it, or allowlist it with the reason", f))
		}
		delete(allowed, f)
	}
	for name := range allowed {
		out = append(out, fmt.Sprintf("%s: allowlisted, but it is used or gone — drop the entry", name))
	}
	sort.Strings(out)
	return out
}

func TestDeadcode(t *testing.T) {
	root := filepath.Join("..", "..")
	allow, err := os.ReadFile("deadcode.allow")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := deadcode(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, problem := range deadcodeUnlisted(findings, string(allow)) {
		t.Error(problem)
	}
}

// The scanner itself, on a two-package module: test-only and unused
// exports are findings; own-package, cross-package, selected-method and
// interface-required uses are not; the allowlist excuses with a reason
// and goes stale loudly.
func TestDeadcodeScanner(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module m\n",
		"internal/a/a.go": `package a
type T struct{}
func (T) Used() {}
func (T) Required() {}
func (T) Orphan() {}
func Called() { helper() }
func helper() { Local() }
func Local() {}
func TestOnly() {}
const Unused = 1
`,
		"internal/a/a_test.go": "package a\nfunc init() { TestOnly() }\n",
		"main.go": `package main
import alias "m/internal/a"
type needs interface{ Required() }
func main() { alias.Called(); alias.T{}.Used() }
`,
	} {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	got, err := deadcode(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"m/internal/a.T.Orphan", "m/internal/a.TestOnly", "m/internal/a.Unused"}
	if !slices.Equal(got, want) {
		t.Fatalf("findings %v, want %v", got, want)
	}
	problems := deadcodeUnlisted(got, "# comment\nm/internal/a.TestOnly a reference implementation\nm/internal/a.Unused\nm/internal/a.Gone was here\n")
	if len(problems) != 3 {
		t.Fatalf("problems %q, want an unlisted finding, a missing reason and a stale entry", problems)
	}
}
