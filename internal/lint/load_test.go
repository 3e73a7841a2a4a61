package lint

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gxplug/internal/lint/analysis"
)

// listedPackage is what the loader reads of one `go list -json` record.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	ImportMap  map[string]string
	DepOnly    bool
	Module     *struct{ GoVersion string }
	Error      *struct{ Err string }
}

// analyzeModule runs checks over the module rooted at dir, package by
// package, the way `go vet ./...` hands them to a vet tool: every
// package ./... matches, its test variant (whose GoFiles include its
// _test.go files) and its external test package, each type-checked
// against the export data the go command lists for its imports. A
// package and its test variant report the same findings in the files
// they share, so diagnostics are deduplicated by position. They come
// back as "file:line:col: message [analyzer]" lines in file order.
func analyzeModule(dir string, checks []*analysis.Analyzer) ([]string, error) {
	cmd := exec.Command("go", "list", "-e", "-json", "-deps", "-test", "-export", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	export := make(map[string]string)
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		if p.Error != nil {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		export[p.ImportPath] = p.Export
		pkgs = append(pkgs, p)
	}

	fset := token.NewFileSet()
	type finding struct {
		pos  token.Position
		text string
	}
	var found []finding
	seen := make(map[string]bool)
	for _, p := range pkgs {
		// Dependencies (the standard library, the copies of a package's
		// imports recompiled for its test) are read as export data only,
		// and a test binary's generated main package is no source of ours.
		if p.DepOnly || strings.HasSuffix(p.ImportPath, ".test") || len(p.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			if mapped, ok := p.ImportMap[path]; ok {
				path = mapped
			}
			if export[path] == "" {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(export[path])
		})
		goVersion := ""
		if p.Module != nil && p.Module.GoVersion != "" {
			goVersion = "go" + p.Module.GoVersion
		}
		// A test variant "p [p.test]" is package p with its tests added.
		path, _, _ := strings.Cut(p.ImportPath, " ")
		diags, err := analysis.Analyze(fset, files, path, goVersion, imp, checks)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", p.ImportPath, err)
		}
		for _, d := range diags {
			pos := fset.Position(d.Pos)
			text := fmt.Sprintf("%s: %s [%s]", pos, d.Message, d.Analyzer)
			if !seen[text] {
				seen[text] = true
				found = append(found, finding{pos, text})
			}
		}
	}
	slices.SortFunc(found, func(a, b finding) int {
		return cmp.Or(strings.Compare(a.pos.Filename, b.pos.Filename), cmp.Compare(a.pos.Offset, b.pos.Offset), strings.Compare(a.text, b.text))
	})
	lines := make([]string, len(found))
	for i, f := range found {
		lines[i] = f.text
	}
	return lines, nil
}

// TestLint is the gxlint suite over the whole tree (`make lint` runs it
// beside stock vet): every analyzer over every package
// `go list -test ./...` reports, _test.go files included. Any
// diagnostic fails it.
func TestLint(t *testing.T) {
	diags, err := analyzeModule(filepath.Join("..", ".."), analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Error(d)
	}
}

// TestLintSeededModule drives the loader end to end on a module seeded
// with one violation of each analyzer, the directive one in a _test.go
// file, and checks that each is reported; then that the repaired module
// passes clean. The module is named gxplug so the package-path gating
// matches exactly as it does on this repository.
func TestLintSeededModule(t *testing.T) {
	dirty := writeModule(t, map[string]string{
		"go.mod": "module gxplug\n\ngo 1.24\n",
		// determinism: a wall-clock read in the simulated world.
		"internal/engine/engine.go": `package engine

import "time"

type SuperstepInfo struct{ Superstep int }

type Observer func(SuperstepInfo)

func Stamp() int64 { return time.Now().UnixNano() }
`,
		// nilgate: an Observer called without a nil check.
		"internal/engine/notify.go": `package engine

type Runner struct{ Obs Observer }

func (r *Runner) Step(i int) {
	r.Obs(SuperstepInfo{Superstep: i})
}
`,
		// directive: a suppression with no reason, in a test file.
		"internal/engine/engine_test.go": `package engine

import "testing"

func TestStep(t *testing.T) {
	//gxlint:nilgated
	(&Runner{Obs: func(SuperstepInfo) {}}).Step(1)
}
`,
		// wiresize: a decoded count reaching make() unchecked.
		"internal/gen/ingest/decode.go": `package ingest

func Decode(hdr []byte) []float64 {
	n := int(hdr[0]) | int(hdr[1])<<8
	return make([]float64, n)
}
`,
		// clockcharge: a middleware entry point returning uncharged.
		"internal/gxplug/agent.go": `package gxplug

import "time"

type Agent struct{ pending int }

func (a *Agent) charge(d time.Duration) {}

func (a *Agent) RequestGen() error {
	if a.pending == 0 {
		return nil
	}
	a.charge(time.Millisecond)
	return nil
}
`,
	})
	diags, err := analyzeModule(dirty, analyzers())
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ file, analyzer, message string }{
		{"internal/engine/engine.go", "determinism", "time.Now"},
		{"internal/engine/engine_test.go", "directive", "needs a reason"},
		{"internal/engine/notify.go", "nilgate", "nil-gated"},
		{"internal/gen/ingest/decode.go", "wiresize", "bounds-checked"},
		{"internal/gxplug/agent.go", "clockcharge", "without charging"},
	}
	if len(diags) != len(want) {
		t.Fatalf("%d diagnostics, want %d:\n%s", len(diags), len(want), strings.Join(diags, "\n"))
	}
	for i, w := range want {
		d := filepath.ToSlash(diags[i])
		if !strings.Contains(d, w.file+":") || !strings.HasSuffix(d, "["+w.analyzer+"]") || !strings.Contains(d, w.message) {
			t.Errorf("diagnostic %d = %s, want %s in %s naming %q", i, d, w.analyzer, w.file, w.message)
		}
	}

	clean := writeModule(t, map[string]string{
		"go.mod": "module gxplug\n\ngo 1.24\n",
		"internal/engine/engine.go": `package engine

type SuperstepInfo struct{ Superstep int }

type Observer func(SuperstepInfo)
`,
		"internal/engine/notify.go": `package engine

type Runner struct{ Obs Observer }

func (r *Runner) Step(i int) {
	if r.Obs != nil {
		r.Obs(SuperstepInfo{Superstep: i})
	}
}
`,
		"internal/engine/engine_test.go": `package engine

import "testing"

func TestStep(t *testing.T) {
	//gxlint:nilgated Step checks Obs itself
	(&Runner{Obs: func(SuperstepInfo) {}}).Step(1)
}
`,
		"internal/gen/ingest/decode.go": `package ingest

func Decode(hdr []byte, max int) ([]float64, bool) {
	n := int(hdr[0]) | int(hdr[1])<<8
	if n > max {
		return nil, false
	}
	return make([]float64, n), true
}
`,
		"internal/gxplug/agent.go": `package gxplug

import "time"

type Agent struct{ pending int }

func (a *Agent) charge(d time.Duration) {}

func (a *Agent) RequestGen() error {
	a.charge(time.Duration(a.pending) * time.Millisecond)
	return nil
}
`,
	})
	if diags, err := analyzeModule(clean, analyzers()); err != nil || len(diags) > 0 {
		t.Fatalf("repaired module: %v\n%s", err, strings.Join(diags, "\n"))
	}
}

// writeModule lays files out under a fresh directory and returns it.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}
