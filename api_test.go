package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unusedAPIAllowlist names the exported functions and methods under
// internal/ that no shipped (non-test) file calls but that stay, each
// with the reason. Keys are "<import path>.<name>" for a function and
// "<import path>.<type>.<name>" for a method.
var unusedAPIAllowlist = map[string]string{
	"repro/internal/logp.ScriptAsProgram":     "test oracle: other packages' tests run a Script through the Program engine with it",
	"repro/internal/logp/reference.Run":       "test oracle: the independent interpreter the engines and goldens are checked against",
	"repro/internal/logp.CheckTrace":          "documented by ExampleCheckTrace: replays a trace through the Auditor",
	"repro/internal/analysis/kit/kittest.Run": "analyzer fixture harness every analyzer's tests call",
	"repro/internal/bsputil.Broadcast":        "traffic for TestCollectivesOnLogP, native BSP against the three BSPOnLogP routers",
	"repro/internal/bsputil.PrefixSums":       "traffic for TestCollectivesOnLogP, native BSP against the three BSPOnLogP routers",
	"repro/internal/bsputil.AllToAll":         "traffic for TestCollectivesOnLogP, native BSP against the three BSPOnLogP routers",
}

// stdInterfaceMethods are the standard library's interface methods
// (sort.Interface, heap.Interface, fmt.Stringer, error) that a type
// implements for a package outside the tree to call.
var stdInterfaceMethods = map[string]bool{
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"String": true, "Error": true,
}

// TestNoUnusedInternalAPI fails for every exported function or method
// under internal/ that no non-test file in the tree refers to, unless
// the allowlist gives a reason to keep it. benchmark/ and examples/
// count as callers. A function is used when a file names it by an
// import selector or a same-package identifier. A method is used when
// a file selects its name on any value (the scan has no types, so any
// receiver counts), or when an interface, in the tree or in
// stdInterfaceMethods, declares the name: the interface's callers
// reach the method without naming its type.
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

	// declared: exported functions and methods under internal/, keyed
	// as in the allowlist; methods maps each method key to its name.
	declared := map[string]token.Position{}
	methods := map[string]string{}
	for _, f := range files {
		if !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, decl := range f.ast.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			key := "repro/" + f.dir + "." + fn.Name.Name
			if fn.Recv != nil {
				// T, *T, T[P] and *T[P] all key as T.
				recv, _, _ := strings.Cut(strings.TrimPrefix(types.ExprString(fn.Recv.List[0].Type), "*"), "[")
				key = "repro/" + f.dir + "." + recv + "." + fn.Name.Name
				methods[key] = fn.Name.Name
			}
			declared[key] = fset.Position(fn.Pos())
		}
	}

	// used: package-level names referred to; selected: method names
	// selected on a value or declared by an interface.
	used := map[string]bool{}
	selected := maps.Clone(stdInterfaceMethods)
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
			s := refScanner{self: self, imports: imports, used: used, selected: selected}
			if fn, ok := decl.(*ast.FuncDecl); ok {
				// A function or method calling itself does not make it
				// used.
				if fn.Recv == nil {
					s.own = self + "." + fn.Name.Name
				} else {
					s.ownMethod = fn.Name.Name
				}
			}
			ast.Inspect(decl, s.visit)
		}
	}
	isUsed := func(key string) bool {
		if name, ok := methods[key]; ok {
			return selected[name]
		}
		return used[key]
	}

	var unused []string
	for key := range declared {
		if !isUsed(key) {
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
		} else if isUsed(key) {
			t.Errorf("allowlisted %s is called by non-test code; drop its entry", key)
		}
	}
}

// refScanner records, in used, the package-level names that one
// top-level declaration of package self refers to, and in selected the
// names it selects on a value or declares as interface methods.
type refScanner struct {
	self      string            // import path of the file's package
	own       string            // the declared function's key, not counted
	ownMethod string            // the declared method's name, not counted
	imports   map[string]string // local name -> import path
	used      map[string]bool
	selected  map[string]bool
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
		if n.Sel.Name != s.ownMethod {
			s.selected[n.Sel.Name] = true
		}
		ast.Inspect(n.X, s.visit)
		return false
	case *ast.InterfaceType:
		// An interface's callers reach its methods without naming the
		// implementing type.
		for _, m := range n.Methods.List {
			for _, name := range m.Names {
				s.selected[name.Name] = true
			}
		}
	case *ast.Ident:
		if key := s.self + "." + n.Name; key != s.own {
			s.used[key] = true
		}
	}
	return true
}
