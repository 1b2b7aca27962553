package serve

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// settableStruct reports whether an exported struct type belongs to the
// settable surface: the deployments, their topology, every config type
// and every exported policy struct.
func settableStruct(name string) bool {
	switch name {
	case "Cluster", "Geo", "Region", "Topology":
		return true
	}
	return strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Autoscaler") ||
		strings.HasSuffix(name, "Router")
}

// TestSettableSurfacePinned lists the exported fields of the settable
// structs in the package's non-test files and compares them with
// testdata/settable-fields.txt, so a new or removed knob shows up as a
// one-line diff there.
func TestSettableSurfacePinned(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var got []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || !ts.Name.IsExported() || !settableStruct(ts.Name.Name) {
				return true
			}
			if st, ok := ts.Type.(*ast.StructType); ok {
				for _, field := range st.Fields.List {
					for _, id := range field.Names {
						if id.IsExported() {
							got = append(got, ts.Name.Name+"."+id.Name)
						}
					}
				}
			}
			return false
		})
	}

	raw, err := os.ReadFile(filepath.Join("testdata", "settable-fields.txt"))
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	var want []string
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		field, _, _ := strings.Cut(line, " -- ")
		listed[field] = true
		want = append(want, field)
	}
	for _, f := range got {
		if !listed[f] {
			t.Errorf("%s is settable but not in testdata/settable-fields.txt", f)
		}
		delete(listed, f)
	}
	for f := range listed {
		t.Errorf("%s is in testdata/settable-fields.txt but not in the source", f)
	}
	if !sort.StringsAreSorted(want) {
		t.Error("testdata/settable-fields.txt is not sorted")
	}
}
