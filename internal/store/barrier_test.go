package store

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// fieldsWrites returns the position of every statement in file that
// writes a Fields map other than through Record.SetField: an assignment
// or ++/-- to x.Fields[k], and delete or clear of x.Fields. The body of
// Record.SetField itself — the write barrier — is exempt.
func fieldsWrites(fset *token.FileSet, file *ast.File) []string {
	isFields := func(e ast.Expr) bool {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "Fields"
	}
	isFieldsIndex := func(e ast.Expr) bool {
		ix, ok := ast.Unparen(e).(*ast.IndexExpr)
		return ok && isFields(ix.X)
	}
	var out []string
	report := func(n ast.Node) { out = append(out, fset.Position(n.Pos()).String()) }
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			return !(n.Name.Name == "SetField" && n.Recv != nil && file.Name.Name == "store")
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if isFieldsIndex(lhs) {
					report(n)
				}
			}
		case *ast.IncDecStmt:
			if isFieldsIndex(n.X) {
				report(n)
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && (id.Name == "delete" || id.Name == "clear") &&
				len(n.Args) > 0 && isFields(n.Args[0]) {
				report(n)
			}
		}
		return true
	})
	return out
}

// TestFieldsAreWrittenOnlyThroughSetField: a live record shares its
// Fields map with its committed image until SetField copies it, and
// lock-free readers (GetCommitted, Explain, /debug) read that map, so a
// write that bypasses SetField would change a published image. Every Go
// file of the module, bench/ included (read only), is parsed and must
// have no such write.
func TestFieldsAreWrittenOnlyThroughSetField(t *testing.T) {
	fset := token.NewFileSet()
	probe, err := parser.ParseFile(fset, "probe.go", `package p
func f(r *R) {
	r.Fields["a"] = 1
	(r.Fields)["b"]++
	delete(r.Fields, "a")
	clear(r.Fields)
	r.fields["c"] = 1
	m := r.Fields
	_ = m
}`, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := fieldsWrites(fset, probe); len(got) != 4 {
		t.Fatalf("the checker found %d of the probe's 4 writes: %v", len(got), got)
	}

	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	files, bench := 0, 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == "testdata" || rel == filepath.Join("bench", "out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		if strings.HasPrefix(rel, "bench"+string(filepath.Separator)) {
			bench++
		}
		for _, at := range fieldsWrites(fset, file) {
			t.Errorf("%s writes a Fields map without Record.SetField", at)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if bench == 0 || files < 100 {
		t.Fatalf("scanned %d files, %d of them under bench/: the module root is not where the test looks", files, bench)
	}
	t.Logf("%d files scanned, %d of them under bench/", files, bench)
}
