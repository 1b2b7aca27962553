package repro_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestTestOnlyExportsPinned lists the exported names declared under
// internal/ that no non-test code calls or reads, and compares them with
// testdata/test-only-exports.txt, so a new test-only export fails here
// and has to be given a reason in that file (or be deleted or moved into
// a test). It type-checks the non-test files of every package of the
// module and of the bench/ module with go/types and resolves each
// identifier to the object it names, so a use of one Len or Name does
// not count for another. A name is a package-level func, type, const or
// var, or a method of a package-level type; struct fields are not
// listed (encoding/json reads result fields by reflection, and
// internal/serve pins its settable fields in its own testdata). A method
// that implements an interface method some non-test code calls, or
// fmt.Stringer or error, whose methods the standard library calls,
// counts as called.
func TestTestOnlyExportsPinned(t *testing.T) {
	l := newSourceLoader(t)
	for _, p := range l.order {
		l.load(p)
	}
	used := map[types.Object]bool{}
	var ifaceMethods []*types.Func
	for _, obj := range l.info.Uses {
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin() // a generic func or method is used through its instances
			if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				ifaceMethods = append(ifaceMethods, f)
			}
		}
		used[obj] = true
	}
	stdIfaces := l.stdInterfaces()

	var got []string
	for _, p := range l.order {
		if !strings.HasPrefix(p, "repro/internal/") {
			continue
		}
		pkg := l.pkgs[p]
		short := strings.TrimPrefix(p, "repro/internal/")
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				got = append(got, short+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[m] && !implementsCalled(named, m, ifaceMethods, stdIfaces) {
					got = append(got, short+"."+name+"."+m.Name())
				}
			}
		}
	}

	raw, err := os.ReadFile(filepath.Join("testdata", "test-only-exports.txt"))
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	var want []string
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " -- ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("testdata/test-only-exports.txt: %s gives no reason", name)
		}
		listed[name] = true
		want = append(want, name)
	}
	for _, name := range got {
		if !listed[name] {
			t.Errorf("%s is exported but only tests use it: use it, unexport it, move it into a test, "+
				"or add it to testdata/test-only-exports.txt with the reason it stays", name)
		}
		delete(listed, name)
	}
	for name := range listed {
		t.Errorf("%s is in testdata/test-only-exports.txt but is gone or has a non-test caller", name)
	}
	if !sort.StringsAreSorted(want) {
		t.Error("testdata/test-only-exports.txt is not sorted")
	}
}

// implementsCalled reports whether m, a method of named, implements a
// method of an interface that non-test code calls, or of a
// standard-library interface the standard library calls.
func implementsCalled(named *types.Named, m *types.Func, called []*types.Func, std []*types.Interface) bool {
	ptr := types.NewPointer(named)
	satisfies := func(iface *types.Interface) bool {
		return types.Implements(named, iface) || types.Implements(ptr, iface)
	}
	for _, f := range called {
		if f.Name() == m.Name() && satisfies(f.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)) {
			return true
		}
	}
	for _, iface := range std {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == m.Name() && satisfies(iface) {
				return true
			}
		}
	}
	return false
}

// sourceLoader type-checks the non-test files that the host's build
// constraints select in the repro module's and the bench module's
// packages from source, and the standard library from
// the export data `go list -export` reports. Every check records into
// the one info.
type sourceLoader struct {
	t     *testing.T
	fset  *token.FileSet
	files map[string][]*ast.File // import path -> parsed non-test files
	order []string               // import paths, sorted
	pkgs  map[string]*types.Package
	std   types.Importer
	info  *types.Info
}

func newSourceLoader(t *testing.T) *sourceLoader {
	l := &sourceLoader{t: t, fset: token.NewFileSet(), files: map[string][]*ast.File{},
		pkgs: map[string]*types.Package{}, info: &types.Info{Uses: map[*ast.Ident]types.Object{}}}
	stdPaths := map[string]bool{"fmt": true}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		// Type-check the files go build compiles for this host: a file
		// for another GOARCH redeclares what its counterpart declares.
		if ok, err := build.Default.MatchFile(filepath.Dir(p), name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(l.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := path.Join("repro", filepath.ToSlash(filepath.Dir(p)))
		if _, ok := l.files[ip]; !ok {
			l.order = append(l.order, ip)
		}
		l.files[ip] = append(l.files[ip], f)
		for _, imp := range f.Imports {
			if p := strings.Trim(imp.Path.Value, `"`); !strings.HasPrefix(p, "repro/") && p != "unsafe" {
				stdPaths[p] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(l.order)
	l.std = stdImporter(t, l.fset, stdPaths)
	return l
}

// stdImporter returns an importer of the given standard-library packages
// that reads the export data one `go list -export` run locates.
func stdImporter(t *testing.T, fset *token.FileSet, paths map[string]bool) types.Importer {
	args := []string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for p := range paths {
		args = append(args, p)
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	export := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		p, file, _ := strings.Cut(line, "\t")
		export[p] = file
	}
	return importer.ForCompiler(fset, "gc", func(p string) (io.ReadCloser, error) {
		file, ok := export[p]
		if !ok || file == "" {
			return nil, fs.ErrNotExist
		}
		return os.Open(file)
	})
}

// Import implements types.Importer.
func (l *sourceLoader) Import(p string) (*types.Package, error) {
	switch {
	case p == "unsafe":
		return types.Unsafe, nil
	case strings.HasPrefix(p, "repro/"):
		return l.load(p), nil
	}
	return l.std.Import(p)
}

// load type-checks the package at import path p once.
func (l *sourceLoader) load(p string) *types.Package {
	if pkg, ok := l.pkgs[p]; ok {
		return pkg
	}
	files, ok := l.files[p]
	if !ok {
		l.t.Fatalf("no source for %s", p)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(p, l.fset, files, l.info)
	if err != nil {
		l.t.Fatalf("type-check %s: %v", p, err)
	}
	l.pkgs[p] = pkg
	return pkg
}

// stdInterfaces returns the interfaces the standard library calls on a
// repro value: error, and fmt.Stringer, whose String fmt calls.
func (l *sourceLoader) stdInterfaces() []*types.Interface {
	fmtPkg, err := l.std.Import("fmt")
	if err != nil {
		l.t.Fatal(err)
	}
	return []*types.Interface{
		types.Universe.Lookup("error").Type().Underlying().(*types.Interface),
		fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface),
	}
}
