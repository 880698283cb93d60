package ode_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// testFuncRef matches a backquoted test, benchmark or fuzz target name
// in DESIGN.md; a trailing "*" stands for any name with that prefix.
var testFuncRef = regexp.MustCompile("`((?:Test|Benchmark|Fuzz)[A-Za-z0-9_]*\\*?)`")

// experimentIndexNames returns every test function name that DESIGN.md
// §5's experiment-index table cites.
func experimentIndexNames(design string) []string {
	start := strings.Index(design, "\n## 5.")
	if start < 0 {
		return nil
	}
	section := design[start+1:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	var names []string
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		for _, m := range testFuncRef.FindAllStringSubmatch(line, -1) {
			names = append(names, m[1])
		}
	}
	return names
}

// unresolved returns the names that match no function in funcs.
func unresolved(names []string, funcs map[string]bool) []string {
	var out []string
	for _, name := range names {
		found := funcs[name]
		if prefix, ok := strings.CutSuffix(name, "*"); ok {
			for f := range funcs {
				found = found || strings.HasPrefix(f, prefix)
			}
		}
		if !found {
			out = append(out, name)
		}
	}
	return out
}

// TestDesignExperimentIndexNamesExist: every Test*, Benchmark* and
// Fuzz* name that DESIGN.md §5 gives as the check of a claim is a
// top-level function in a _test.go file of this module (bench/ is a
// module of its own and is not searched). A table that cites a test
// nobody wrote claims a check that never runs.
func TestDesignExperimentIndexNamesExist(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	names := experimentIndexNames(string(design))
	if len(names) < 20 {
		t.Fatalf("found %d test names in DESIGN.md §5's table: the section or its table moved", len(names))
	}

	funcs := map[string]bool{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || d.Name() == ".git" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				funcs[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	if got := unresolved([]string{"TestDesignExperimentIndexNamesExist", "TestDesignExperiment*", "TestNoSuchFunction*"}, funcs); len(got) != 1 || got[0] != "TestNoSuchFunction*" {
		t.Fatalf("the resolver reports %v, want only the probe TestNoSuchFunction*", got)
	}
	for _, name := range unresolved(names, funcs) {
		t.Errorf("DESIGN.md §5 cites %s, but no _test.go file of the module defines it", name)
	}
	t.Logf("%d names in DESIGN.md §5 resolve against %d test-file functions", len(names), len(funcs))
}
