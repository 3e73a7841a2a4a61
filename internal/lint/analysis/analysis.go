// Package analysis is a deliberately small, dependency-free mirror of
// the golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects a
// type-checked package through a Pass and reports Diagnostics.
//
// The repository builds offline (no module proxy), so it cannot take
// the real x/tools dependency; this package keeps the same shape — an
// Analyzer with a Run(*Pass) hook, a Pass carrying Fset/Files/Pkg/
// TypesInfo, positional Diagnostics — so the gxlint analyzers are a
// mechanical port away from the upstream framework if the dependency
// ever becomes available. Only the features gxlint needs exist: no
// facts, no required-analyzer graph, no suggested fixes.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer is one static check. Name appears in diagnostics; Doc is
// the one-line invariant it enforces.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass presents one type-checked package to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Path is the package path under analysis (the listed import path,
	// or the fixture path); analyzers gate themselves on it rather than
	// on Pkg.Path so fixtures and the real tree match the same way.
	Path string

	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string // filled in by the driver
}

// Analyze type-checks files (already parsed with comments) as package
// path and runs every analyzer over the result, returning diagnostics
// sorted by position. Type-checking uses imp to resolve imports; a
// type-check error is returned (with any diagnostics gathered so far)
// rather than panicking, so drivers decide whether it is fatal.
func Analyze(fset *token.FileSet, files []*ast.File, path, goVersion string, imp types.Importer, analyzers []*Analyzer) ([]Diagnostic, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := &types.Config{
		Importer:  imp,
		GoVersion: goVersion,
		Error:     func(error) {}, // collect all errors via the returned one
	}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, err
	}

	var diags []Diagnostic
	for _, a := range analyzers {
		a := a
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Path:      path,
			Report: func(d Diagnostic) {
				d.Analyzer = a.Name
				diags = append(diags, d)
			},
		}
		if err := a.Run(pass); err != nil {
			return diags, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}
