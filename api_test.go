package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unusedAPIAllowlist names the exported package-level functions under
// internal/ that no shipped (non-test) file calls but that stay, each
// with the reason. Keys are "<import path>.<name>".
var unusedAPIAllowlist = map[string]string{
	"repro/internal/logp.ScriptAsProgram":     "test oracle: other packages' tests run a Script through the Program engine with it",
	"repro/internal/logp/reference.Run":       "test oracle: the independent interpreter the engines and goldens are checked against",
	"repro/internal/logp.CheckTrace":          "documented by ExampleCheckTrace: replays a trace through the Auditor",
	"repro/internal/analysis/kit/kittest.Run": "analyzer fixture harness every analyzer's tests call",
	"repro/internal/bsputil.Broadcast":        "traffic for TestCollectivesOnLogP, native BSP against the three BSPOnLogP routers",
	"repro/internal/bsputil.PrefixSums":       "traffic for TestCollectivesOnLogP, native BSP against the three BSPOnLogP routers",
	"repro/internal/bsputil.AllToAll":         "traffic for TestCollectivesOnLogP, native BSP against the three BSPOnLogP routers",
}

// TestNoUnusedInternalAPI fails for every exported package-level
// function under internal/ that no non-test file in the tree refers
// to, by an import selector or a same-package identifier, unless the
// allowlist gives a reason to keep it. benchmark/ and examples/ count
// as callers. Methods are out of scope: an interface can require a
// method without any file naming it.
func TestNoUnusedInternalAPI(t *testing.T) {
	type file struct {
		dir string
		ast *ast.File
	}
	var files []file
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, file{filepath.ToSlash(filepath.Dir(p)), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// declared: exported functions under internal/, keyed by import path.
	declared := map[string]token.Position{}
	for _, f := range files {
		if !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, decl := range f.ast.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() {
				declared["repro/"+f.dir+"."+fn.Name.Name] = fset.Position(fn.Pos())
			}
		}
	}

	used := map[string]bool{}
	for _, f := range files {
		self := "repro/" + f.dir
		// Every package in the tree is named after its directory.
		imports := map[string]string{} // local name -> import path
		for _, spec := range f.ast.Imports {
			ip, _ := strconv.Unquote(spec.Path.Value)
			local := path.Base(ip)
			if spec.Name != nil {
				local = spec.Name.Name
			}
			imports[local] = ip
		}
		for _, decl := range f.ast.Decls {
			s := refScanner{self: self, imports: imports, used: used}
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				// A function calling itself does not make it used.
				s.own = self + "." + fn.Name.Name
			}
			ast.Inspect(decl, s.visit)
		}
	}

	var unused []string
	for key := range declared {
		if !used[key] {
			unused = append(unused, key)
		}
	}
	sort.Strings(unused)
	for _, key := range unused {
		if _, ok := unusedAPIAllowlist[key]; !ok {
			t.Errorf("%s: %s is exported but no non-test code calls it; delete it, move it into a _test.go file, or allowlist it with a reason", declared[key], key)
		}
	}
	for key := range unusedAPIAllowlist {
		if _, ok := declared[key]; !ok {
			t.Errorf("allowlisted %s is not declared; drop its entry", key)
		} else if used[key] {
			t.Errorf("allowlisted %s is called by non-test code; drop its entry", key)
		}
	}
}

// refScanner records, in used, the package-level names that one
// top-level declaration of package self refers to.
type refScanner struct {
	self    string            // import path of the file's package
	own     string            // the declared function's key, not counted
	imports map[string]string // local name -> import path
	used    map[string]bool
}

func (s refScanner) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.FuncDecl:
		// The declared name is not a reference.
		if n.Recv != nil {
			ast.Inspect(n.Recv, s.visit)
		}
		ast.Inspect(n.Type, s.visit)
		if n.Body != nil {
			ast.Inspect(n.Body, s.visit)
		}
		return false
	case *ast.SelectorExpr:
		if x, ok := n.X.(*ast.Ident); ok {
			if ip, ok := s.imports[x.Name]; ok {
				s.used[ip+"."+n.Sel.Name] = true
				return false
			}
		}
		// A field or method name after the dot is not a package-level
		// identifier.
		ast.Inspect(n.X, s.visit)
		return false
	case *ast.Ident:
		if key := s.self + "." + n.Name; key != s.own {
			s.used[key] = true
		}
	}
	return true
}
