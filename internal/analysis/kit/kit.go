// Package kit is the minimal slice of the golang.org/x/tools
// go/analysis vocabulary that the bsplogpvet suite needs, built on the
// standard library alone. The build environment for this repository has
// no module proxy, so the real framework cannot be vendored; the kit
// keeps analyzer code source-compatible enough (Analyzer struct with a
// Run func over a Pass, Reportf, testdata fixtures with "want"
// comments) that a later port to x/tools is mechanical.
//
// Packages are loaded through `go list -deps -export`, which has the
// toolchain compile every dependency and hand back export-data files;
// the packages under analysis are then re-parsed from source and
// type-checked by go/types with an importer that reads that export
// data. This is the same division of labour as the x/tools loader,
// minus cgo and test files (the suite deliberately analyzes only
// non-test sources: test files exercise engine internals on purpose).
package kit

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check. Name doubles as the key a
// `//lint:ignore <name> <reason>` directive uses to suppress a finding.
type Analyzer struct {
	Name string
	// Doc is the one-paragraph description printed by `bsplogpvet -list`.
	Doc string
	// Scope restricts the analyzer to packages whose import path
	// matches one of these prefixes (a prefix matches the package
	// itself and everything below it). Empty means every package.
	// Scope is enforced by the runner, not the analyzer, so fixture
	// tests exercise the check logic regardless of fixture paths.
	Scope []string
	Run   func(*Pass)
}

// InScope reports whether the analyzer applies to the package with the
// given import path.
func (a *Analyzer) InScope(path string) bool {
	if len(a.Scope) == 0 {
		return true
	}
	for _, pre := range a.Scope {
		if path == pre || strings.HasPrefix(path, pre+"/") {
			return true
		}
	}
	return false
}

// A Diagnostic is one finding, positioned and attributed.
type Diagnostic struct {
	Analyzer string
	File     string
	Line     int
	Col      int
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	diags    *[]Diagnostic
}

// Fset returns the file set all of the package's positions resolve
// against.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// Files returns the parsed non-test sources of the package.
func (p *Pass) Files() []*ast.File { return p.Pkg.Files }

// TypesInfo returns the package's type-checker fact tables.
func (p *Pass) TypesInfo() *types.Info { return p.Pkg.Info }

// TypesPkg returns the type-checked package object.
func (p *Pass) TypesPkg() *types.Package { return p.Pkg.Types }

// TypeOf returns the static type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ObjectOf returns the object an identifier denotes, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.Pkg.Info.ObjectOf(id); o != nil {
		return o
	}
	return nil
}

// PosFor maps a (file, line, col) triple — the shape of a compiler
// diagnostic — back onto a token.Pos in the package's file set, or
// token.NoPos when the file is not part of this package or the line is
// out of range. Columns are byte offsets from 1, matching both the
// go/token and the gc diagnostic conventions.
func (p *Pass) PosFor(filename string, line, col int) token.Pos {
	pos := token.NoPos
	p.Pkg.Fset.Iterate(func(f *token.File) bool {
		if f.Name() != filename {
			return true
		}
		if line >= 1 && line <= f.LineCount() {
			pos = f.LineStart(line) + token.Pos(col-1)
		}
		return false
	})
	return pos
}

// Reportf records a finding at pos. Suppression by //lint:ignore
// directives happens in the runner so that every analyzer gets it for
// free and directives are honored identically by the CLI driver and the
// fixture harness.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Pkg.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunAnalyzers applies every in-scope analyzer to every package,
// applies //lint:ignore suppression, and returns the surviving
// findings sorted by position. Malformed directives (no reason, or
// naming no known analyzer) are themselves findings, so an exception
// cannot silently rot — and so are stale ones: a well-formed directive
// that suppressed nothing, even though every analyzer it names actually
// ran on its package, marks an exception whose underlying finding has
// been fixed and whose annotation should be dropped.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	known := map[string]bool{"bsplogpvet": true}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	ran := map[*Package]map[string]bool{}
	for _, pkg := range pkgs {
		ran[pkg] = map[string]bool{}
		for _, a := range analyzers {
			if !a.InScope(pkg.PkgPath) {
				continue
			}
			ran[pkg][a.Name] = true
			pass := &Pass{Analyzer: a, Pkg: pkg, diags: &diags}
			a.Run(pass)
		}
		for _, dir := range pkg.Directives {
			if dir.Reason == "" {
				diags = append(diags, Diagnostic{
					Analyzer: "directive",
					File:     dir.File, Line: dir.Line, Col: dir.Col,
					Message: "//lint:ignore needs a reason: //lint:ignore <analyzers> <why this exception is sound>",
				})
				continue
			}
			for _, name := range dir.Checks {
				if !known[name] {
					diags = append(diags, Diagnostic{
						Analyzer: "directive",
						File:     dir.File, Line: dir.Line, Col: dir.Col,
						Message: fmt.Sprintf("//lint:ignore names unknown analyzer %q", name),
					})
				}
			}
		}
	}
	var used map[string]bool
	diags, used = suppress(pkgs, diags)
	for _, pkg := range pkgs {
		for _, dir := range pkg.Directives {
			if dir.Reason == "" || !staleCheckable(dir, ran[pkg]) {
				continue
			}
			if !used[dirKey(dir)] {
				diags = append(diags, Diagnostic{
					Analyzer: "directive",
					File:     dir.File, Line: dir.Line, Col: dir.Col,
					Message: fmt.Sprintf("stale //lint:ignore: no %s finding on its lines; drop the exception",
						strings.Join(dir.Checks, ",")),
				})
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// suppress drops findings covered by a //lint:ignore directive. A
// directive covers its own line and, when it stands alone on a line,
// the next line — the staticcheck placement conventions. The second
// return value records, by dirKey, which directives suppressed at least
// one finding; RunAnalyzers uses it for the stale-directive check.
func suppress(pkgs []*Package, diags []Diagnostic) ([]Diagnostic, map[string]bool) {
	type key struct {
		file string
		line int
	}
	covered := map[key][]Directive{}
	for _, pkg := range pkgs {
		for _, dir := range pkg.Directives {
			if dir.Reason == "" {
				continue // malformed: never suppresses
			}
			covered[key{dir.File, dir.Line}] = append(covered[key{dir.File, dir.Line}], dir)
			if dir.OwnLine {
				covered[key{dir.File, dir.Line + 1}] = append(covered[key{dir.File, dir.Line + 1}], dir)
			}
		}
	}
	used := map[string]bool{}
	var kept []Diagnostic
	for _, d := range diags {
		if d.Analyzer == "directive" {
			kept = append(kept, d)
			continue
		}
		hit := false
		for _, dir := range covered[key{d.File, d.Line}] {
			for _, name := range dir.Checks {
				if name == d.Analyzer || name == "bsplogpvet" {
					hit = true
					used[dirKey(dir)] = true
				}
			}
		}
		if !hit {
			kept = append(kept, d)
		}
	}
	return kept, used
}

// dirKey identifies a directive by position for the stale check.
func dirKey(dir Directive) string {
	return fmt.Sprintf("%s:%d:%d", dir.File, dir.Line, dir.Col)
}

// staleCheckable reports whether the stale check may judge dir: every
// analyzer it names must actually have run on the package (an ignore
// for an analyzer outside its scope, or absent from a single-analyzer
// fixture run, is not evidence of staleness). The suite-wide
// "bsplogpvet" name is checkable whenever any analyzer ran.
func staleCheckable(dir Directive, ran map[string]bool) bool {
	if len(ran) == 0 {
		return false
	}
	for _, name := range dir.Checks {
		if name == "bsplogpvet" {
			continue
		}
		if !ran[name] {
			return false
		}
	}
	return true
}
