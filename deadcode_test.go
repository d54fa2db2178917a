package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// deadcodeInterfaceMethods are the methods the scan cannot see called: the
// code reaches them through an interface, never by name. Each is listed with
// the interface that needs it; nothing else belongs here.
var deadcodeInterfaceMethods = map[string]string{
	"internal/partition.loadHeap.Less":     "container/heap.Interface",
	"internal/partition.scHeap.Less":       "container/heap.Interface",
	"internal/vet.fromImporter.ImportFrom": "go/types.ImporterFrom",
}

// TestNoTestOnlyCode keeps code that no shipped program reaches out of the
// build. It parses the non-test Go of this module and of the benchmark
// module (testdata/ excluded) and fails with every function or method,
// declared outside benchmark/, whose name appears in that code only where
// it is declared. Such a function is reached, if at all, only from tests:
// an oracle or test hook belongs in a _test.go file of its package, and an
// API nothing needs goes. The scan matches names, not objects, so a name
// that some other identifier shares counts as used; it errs towards
// passing.
func TestNoTestOnlyCode(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct{ pos, id string }
	decls := map[string][]decl{} // name -> declarations outside benchmark/
	used := map[string]bool{}    // names that occur other than as a declared function's name
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		names := map[*ast.Ident]bool{}
		for _, fd := range f.Decls {
			fn, ok := fd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			names[fn.Name] = true
			if strings.HasPrefix(path, "benchmark"+string(filepath.Separator)) {
				continue
			}
			id := filepath.ToSlash(filepath.Dir(path)) + "."
			if fn.Recv != nil {
				id += recvName(fn.Recv.List[0].Type) + "."
			}
			id += fn.Name.Name
			decls[fn.Name.Name] = append(decls[fn.Name.Name], decl{fset.Position(fn.Pos()).String(), id})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !names[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var dead []string
	allowed := map[string]bool{}
	for name, ds := range decls {
		if used[name] || name == "main" || name == "init" || name == "_" {
			continue
		}
		for _, d := range ds {
			if _, ok := deadcodeInterfaceMethods[d.id]; ok {
				allowed[d.id] = true
			} else {
				dead = append(dead, d.pos+": "+d.id)
			}
		}
	}
	for id := range deadcodeInterfaceMethods {
		if !allowed[id] {
			t.Errorf("allow-list entry %s is no longer an unnamed interface method; remove it", id)
		}
	}
	slices.Sort(dead)
	if len(dead) > 0 {
		t.Errorf("%d functions are reached only from tests or not at all; move each oracle or test hook into a _test.go file of its package, or delete it:\n%s",
			len(dead), strings.Join(dead, "\n"))
	}
}

// recvName is the type name of a method receiver: T for T, *T, T[P] and *T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
