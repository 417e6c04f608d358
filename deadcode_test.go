package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// implicitMethods are the exported method names the standard library calls
// through an interface (fmt.Stringer, error, sort.Interface, heap.Interface),
// so no identifier in this repository needs to name them.
var implicitMethods = map[string]bool{
	"String": true, "Error": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// TestNoUncalledExports keeps the exported API to what is used. It parses
// every Go file of the module, the benchmark driver under perfbench/
// included, and fails on any exported function or method declared outside
// a test file whose name no other identifier references — in code or in
// tests. The match is by name, so it errs towards keeping an export that
// shares its name with something used.
func TestNoUncalledExports(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct {
		name string
		pos  token.Position
	}
	var decls []decl
	declNames := map[*ast.Ident]bool{}
	refs := map[string]bool{}
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		for _, dl := range f.Decls {
			fd, ok := dl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declNames[fd.Name] = true
			if !fd.Name.IsExported() || strings.HasSuffix(path, "_test.go") {
				continue
			}
			if fd.Recv != nil && implicitMethods[fd.Name.Name] {
				continue
			}
			decls = append(decls, decl{fd.Name.Name, fset.Position(fd.Name.Pos())})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declNames[id] {
				refs[id.Name] = true
			}
			return true
		})
	}
	var dead []string
	for _, d := range decls {
		if !refs[d.name] {
			dead = append(dead, d.pos.String()+": "+d.name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported but never referenced: %s", d)
	}
}
