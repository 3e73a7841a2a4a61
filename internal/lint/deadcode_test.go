package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"gxplug/internal/lint/analysis"
)

// This file is TestDeadcode: a check over the whole tree that no
// exported identifier under internal/ is kept alive by tests alone —
// which is how a deleted feature's helpers outlive it. deadcode.allow
// lists the exceptions, one "finding reason…" per line.

// deadcode lists the exported functions, types, constants, variables and
// methods declared under root's internal/ that no non-test .go file uses,
// in the module at root or in any module nested under it (the benchmark
// module, say). Each module is loaded as TestLint loads it, so a use is
// an identifier the type checker resolves to the declared object:
//
//   - a package-level identifier is used where it is named, in its own
//     package or through an import of it;
//   - a method is used where a selector resolves to that very method, or
//     where its receiver type (or a pointer to it) has every method of
//     an interface the tree names that declares a method of its name.
//
// A method is not used because another type has a method of the same
// name. Findings read "import/path.Name" or "import/path.Type.Method",
// sorted.
func deadcode(root string) ([]string, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	module := strings.TrimSpace(strings.TrimPrefix(strings.SplitN(string(mod), "\n", 2)[0], "module"))
	s := &deadcodeScan{
		internal: module + "/internal/",
		declared: make(map[string]*types.Func),
		used:     make(map[string]bool),
		ifaces:   make(map[string]*types.Interface),
	}
	var modules []string
	err = filepath.WalkDir(root, func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if n := d.Name(); d.IsDir() && file != root && (n == "testdata" || strings.HasPrefix(n, ".")) {
			return filepath.SkipDir
		}
		if d.Name() == "go.mod" {
			modules = append(modules, filepath.Dir(file))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	scan := []*analysis.Analyzer{{Name: "deadcode", Run: s.run}}
	for _, dir := range modules {
		if _, err := analyzeModule(dir, scan); err != nil {
			return nil, err
		}
	}
	var dead []string
	for name, method := range s.declared {
		if !s.used[name] && (method == nil || !s.satisfiesNamedInterface(method)) {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	return dead, nil
}

// A deadcodeScan gathers, from the non-test files of every package it
// is run on, the exported identifiers declared under internal/ and what
// the tree uses.
type deadcodeScan struct {
	internal string                      // module path + "/internal/"
	declared map[string]*types.Func      // finding -> the method, nil for a package-level identifier
	used     map[string]bool             // findings some identifier resolves to
	ifaces   map[string]*types.Interface // every interface the tree names, by type string
}

func (s *deadcodeScan) run(pass *analysis.Pass) error {
	info := pass.TypesInfo
	for _, f := range pass.Files {
		if isTestFile(fileName(pass, f)) {
			continue
		}
		if strings.HasPrefix(pass.Path+"/", s.internal) {
			s.declare(f, info)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				obj := info.Uses[n]
				if obj == nil {
					break
				}
				s.used[objectKey(obj)] = true
				if _, ok := obj.(*types.TypeName); ok {
					s.nameInterface(obj.Type())
				}
			case *ast.InterfaceType:
				s.nameInterface(info.TypeOf(n))
			}
			return true
		})
	}
	return nil
}

// declare records f's exported package-level identifiers and the
// exported methods of its exported types.
func (s *deadcodeScan) declare(f *ast.File, info *types.Info) {
	add := func(id *ast.Ident) {
		obj := info.Defs[id]
		if obj == nil || !obj.Exported() {
			return
		}
		fn, _ := obj.(*types.Func)
		if fn != nil && fn.Signature().Recv() == nil {
			fn = nil
		}
		if fn != nil && !receiverName(fn).Exported() {
			return
		}
		s.declared[objectKey(obj)] = fn
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			add(decl.Name)
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add(spec.Name)
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						add(id)
					}
				}
			}
		}
	}
}

// nameInterface records t if it is an interface with methods.
func (s *deadcodeScan) nameInterface(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
		s.ifaces[types.TypeString(it, nil)] = it
	}
}

// satisfiesNamedInterface reports whether m's receiver type, or a
// pointer to it, has every method of some named interface that declares
// a method called m. Each package is type-checked on its own, so two
// packages hold separate copies of the types they share: methods match
// by name and signature, not by identity.
func (s *deadcodeScan) satisfiesNamedInterface(m *types.Func) bool {
	recv := m.Signature().Recv().Type()
	if _, ok := recv.(*types.Pointer); !ok {
		recv = types.NewPointer(recv)
	}
	mset := types.NewMethodSet(recv)
	have := make(map[string]string, mset.Len())
	for i := range mset.Len() {
		fn := mset.At(i).Obj().(*types.Func)
		have[fn.Id()] = signature(fn)
	}
	for _, it := range s.ifaces {
		declares, satisfied := false, true
		for i := range it.NumMethods() {
			im := it.Method(i)
			declares = declares || im.Name() == m.Name()
			satisfied = satisfied && have[im.Id()] == signature(im)
		}
		if declares && satisfied {
			return true
		}
	}
	return false
}

// signature prints fn's parameter and result types, without names.
func signature(fn *types.Func) string {
	sig := fn.Signature()
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		for i := range tuple.Len() {
			b.WriteString(types.TypeString(tuple.At(i).Type(), nil) + ",")
		}
		b.WriteString(";")
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// objectKey names a package-level object "import/path.Name" and a
// method "import/path.Type.Method"; anything else gets "".
func objectKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
		if recv := receiverName(fn); recv != nil {
			return obj.Pkg().Path() + "." + recv.Name() + "." + obj.Name()
		}
		return ""
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// receiverName is the named type a method is declared on, nil for an
// interface's method.
func receiverName(fn *types.Func) *types.TypeName {
	t := fn.Signature().Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		if _, iface := n.Underlying().(*types.Interface); !iface {
			return n.Obj()
		}
	}
	return nil
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

// The scanner itself, on a two-package module with a module nested in
// it: test-only and unused exports are findings; own-package,
// cross-package, selected-method, interface-required and nested-module
// uses are not; a method whose name another type's called method shares
// still is. The allowlist excuses with a reason and goes stale loudly.
func TestDeadcodeScanner(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module m\n\ngo 1.24\n",
		"internal/a/a.go": `package a
type T struct{}
func (T) Used() {}
func (T) Required() {}
func (T) Orphan() {}
func (T) Nested() {}
type U struct{}
func (U) Used() {}
func (U) Nested() {}
func Called() { helper() }
func helper() { Local() }
func Local() {}
func TestOnly() {}
const Unused = 1
`,
		"internal/a/a_test.go": "package a\nfunc init() { TestOnly(); U{}.Nested() }\n",
		"main.go": `package main
import alias "m/internal/a"
type needs interface{ Required() }
func main() { alias.Called(); alias.T{}.Used() }
`,
		"tools/go.mod":  "module m/tools\n\ngo 1.24\n\nrequire m v0.0.0\n\nreplace m => ../\n",
		"tools/main.go": "package main\nimport \"m/internal/a\"\nfunc main() { a.T{}.Nested() }\n",
	})
	got, err := deadcode(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"m/internal/a.T.Orphan", "m/internal/a.TestOnly", "m/internal/a.U.Nested", "m/internal/a.U.Used", "m/internal/a.Unused"}
	if !slices.Equal(got, want) {
		t.Fatalf("findings %v, want %v", got, want)
	}
	problems := deadcodeUnlisted(got, "# comment\nm/internal/a.TestOnly a reference implementation\nm/internal/a.Unused\nm/internal/a.Gone was here\n")
	if len(problems) != 5 {
		t.Fatalf("problems %q, want two unlisted findings, a missing reason and a stale entry", problems)
	}
}
