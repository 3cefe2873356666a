package rarestfirst

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestConfigFieldsAreRead fails on an option nothing reads: a field of
// the simulator's or the live client's config structs that the non-test
// code of its package only ever assigns (x.F = v) or names as a
// composite-literal key. Such a field has no effect, and a caller who
// sets it is misled. Fields are matched by name, not by type, so reading
// a same-named field of another struct counts too: the check can miss a
// dead field but never flags a live one.
func TestConfigFieldsAreRead(t *testing.T) {
	guarded := map[string][]string{
		"internal/swarm":  {"Config", "Chaos", "Crashes", "Adversary"},
		"internal/client": {"Options"},
	}
	for dir, types := range guarded {
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		var files []*ast.File
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		fields := structFields(files, types)
		if len(fields) == 0 {
			t.Fatalf("%s: no fields found in %v", dir, types)
		}
		read := readSelectors(files)
		for _, f := range fields {
			if !read[f.name] {
				t.Errorf("%s: %s.%s is only ever assigned or set in a literal, never read", dir, f.typ, f.name)
			}
		}
	}
}

type structField struct{ typ, name string }

// structFields lists the named fields of the struct types called one of
// types, in declaration order.
func structFields(files []*ast.File, types []string) []structField {
	var out []structField
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok || !slices.Contains(types, ts.Name.Name) {
				return true
			}
			for _, fl := range st.Fields.List {
				for _, name := range fl.Names {
					out = append(out, structField{ts.Name.Name, name.Name})
				}
			}
			return false
		})
	}
	return out
}

// readSelectors returns the names of every x.F the files read: every
// selector except the direct targets of a plain assignment (= or :=).
// Composite-literal keys are identifiers, not selectors, so they never
// count. Inspect visits an assignment before its operands, so its
// targets are marked before they are reached.
func readSelectors(files []*ast.File) map[string]bool {
	written := map[*ast.SelectorExpr]bool{}
	read := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
					for _, lhs := range n.Lhs {
						if se, ok := lhs.(*ast.SelectorExpr); ok {
							written[se] = true
						}
					}
				}
			case *ast.SelectorExpr:
				if !written[n] {
					read[n.Sel.Name] = true
				}
			}
			return true
		})
	}
	return read
}
