package integration

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unusedAllowed lists the exported functions and methods under internal/
// that no non-test file calls but that stay in the build, each with the
// reason. Everything else TestNoUnusedExports finds must be deleted, or
// moved into the _test.go files of the one package whose tests use it.
var unusedAllowed = map[string]string{
	"datalog.Program.EvalInterp":        "the interpreted fixpoint: reference of the datalog and engine differential tests",
	"containment.Freeze":                "the canonical database: oracle of the containment theorems in theorems_test.go",
	"core.ExpandUnion":                  "expands a union rewriting for the MiniCon ≡ Bucket equivalence check",
	"containment.UnionContainedInUnion": "decides the MiniCon ≡ Bucket equivalence check on expanded unions",
	"storage.Database.Summary":          "renders a database in failure messages of tests in three packages",
	"storage.Database.Equal":            "compares databases in tests of three packages",
	"cq.Query.AddComparison":            "builds queries with comparisons in tests of three packages",
	"cost.Catalog.SetRelation":          "what-if statistics in planner tests of two packages",
	"server.Server.Draining":            "drain state: kept as a gauge for a /metrics endpoint",
	"durable.Store.PendingRecords":      "WAL depth: kept as a gauge for a /metrics endpoint",
}

// TestNoUnusedExports fails, listing them, when an exported function or
// method declared in a non-test file under internal/ is never referenced
// from a non-test file of the root module or of bench/. Such code is kept
// compiling, documented and covered for no caller.
//
// The files are type-checked, so a reference counts only when it resolves
// to the function itself: a dead method is found even when a live function
// or method shares its name. Methods that the standard library calls
// through an interface are counted as used (see libraryCalled).
func TestNoUnusedExports(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	pkgs := map[string][]*ast.File{}
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(p)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		// bench/ is the module repro/bench, so every directory's import
		// path is the root module's path joined with the directory.
		rel, _ := filepath.Rel(root, dir)
		pkg := path.Join("repro", filepath.ToSlash(rel))
		pkgs[pkg] = append(pkgs[pkg], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	used, err := exportsUsed(fset, pkgs, "repro/internal/")
	if err != nil {
		t.Fatal(err)
	}
	if len(used) == 0 {
		t.Fatal("no exported functions found under internal/: the walk missed the module")
	}
	var unused []string
	for key, ok := range used {
		if !ok && unusedAllowed[key] == "" {
			unused = append(unused, key)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d exported functions under internal/ have no caller outside _test.go files; delete them, or move them into their package's tests:\n\t%s",
			len(unused), strings.Join(unused, "\n\t"))
	}
	for key := range unusedAllowed {
		if ok, declared := used[key]; !declared {
			t.Errorf("allowlisted %s is no longer declared: drop it from unusedAllowed", key)
		} else if ok {
			t.Errorf("allowlisted %s now has a caller: drop it from unusedAllowed", key)
		}
	}
}

// TestUnusedExportsByIdentity checks the guard on a package whose dead
// methods A.Names and M.Contained share their names with the live B.Names
// and Contained, so a scan by name counts them as called. G.Put and Rec
// call only themselves; E's methods are called by the standard library.
func TestUnusedExportsByIdentity(t *testing.T) {
	const lib = `package lib

type A struct{}
type B struct{}
type M struct{}
type E struct{}
type G[T any] struct{ v T }

func (*A) Names() []string { return nil }
func (*B) Names() []string { return nil }
func (*M) Contained() bool { return false }
func Contained() bool { return true }
func (*E) Error() string { return "" }
func (*E) Unwrap() error { return nil }
func (*E) Is(error) bool { return false }
func (g G[T]) Get() T { return g.v }
func (g G[T]) Put(v T) G[T] { return G[T]{v}.Put(v) }
func Rec(n int) int { return Rec(n - 1) }
`
	const main = `package main

import "x/internal/lib"

func main() {
	_ = new(lib.B).Names()
	_ = lib.Contained()
	_ = lib.G[int]{}.Get()
}
`
	fset := token.NewFileSet()
	pkgs := map[string][]*ast.File{}
	for p, src := range map[string]string{"x/internal/lib": lib, "x/cmd": main} {
		f, err := parser.ParseFile(fset, p+"/x.go", src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkgs[p] = []*ast.File{f}
	}
	used, err := exportsUsed(fset, pkgs, "x/internal/")
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for key, ok := range used {
		if !ok {
			unused = append(unused, key)
		}
	}
	sort.Strings(unused)
	want := "lib.A.Names lib.G.Put lib.M.Contained lib.Rec"
	if got := strings.Join(unused, " "); got != want {
		t.Errorf("unused = %s, want %s", got, want)
	}
	if len(used) != 10 {
		t.Errorf("%d exported functions declared, want 10: %v", len(used), used)
	}
}

// libraryCalled declares the methods that the standard library calls
// through an interface, so no identifier in the module resolves to them:
// error's Error, fmt.Stringer, json.Marshaler and json.Unmarshaler,
// io.Writer, and the Is and Unwrap that errors.Is and errors.As look for.
const libraryCalled = `package p

type I interface {
	Error() string
	String() string
	MarshalJSON() ([]byte, error)
	UnmarshalJSON([]byte) error
	Write([]byte) (int, error)
	Is(error) bool
	Unwrap() error
}
`

// exportsUsed type-checks pkgs (import path → the package's parsed
// files) and reports, for each exported function and method declared in a
// package whose path begins with declPrefix, whether an identifier outside
// its own declaration resolves to it. The keys are the package path after
// declPrefix, then the receiver's type name for a method, then the name.
// A method whose name and signature are one of libraryCalled's counts as
// used. Packages outside pkgs are imported from the standard library's
// source.
func exportsUsed(fset *token.FileSet, pkgs map[string][]*ast.File, declPrefix string) (map[string]bool, error) {
	lf, err := parser.ParseFile(fset, "library.go", libraryCalled, 0)
	if err != nil {
		return nil, err
	}
	lp, err := new(types.Config).Check("p", fset, []*ast.File{lf}, nil)
	if err != nil {
		return nil, err
	}
	library := lp.Scope().Lookup("I").Type()

	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	imp := &repoImporter{
		fset: fset, pkgs: pkgs, info: info,
		std:     importer.ForCompiler(fset, "source", nil),
		checked: map[string]*types.Package{},
	}
	paths := make([]string, 0, len(pkgs))
	for p := range pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := imp.Import(p); err != nil {
			return nil, err
		}
	}

	type decl struct {
		key      string
		pos, end token.Pos
	}
	decls := map[*types.Func]decl{}
	used := map[string]bool{}
	for _, p := range paths {
		name, ok := strings.CutPrefix(p, declPrefix)
		if !ok {
			continue
		}
		for _, f := range pkgs[p] {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := info.Defs[fd.Name].(*types.Func)
				key := name + "." + fd.Name.Name
				sig := fn.Type().(*types.Signature)
				if recv := sig.Recv(); recv != nil {
					t := recv.Type()
					if p, ok := t.(*types.Pointer); ok {
						t = p.Elem()
					}
					key = name + "." + t.(*types.Named).Obj().Name() + "." + fd.Name.Name
					if m, _, _ := types.LookupFieldOrMethod(library, false, nil, fd.Name.Name); m != nil && types.Identical(sig, m.Type()) {
						used[key] = true
						continue
					}
				}
				decls[fn] = decl{key, fd.Pos(), fd.End()}
				used[key] = false
			}
		}
	}
	for id, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if d, ok := decls[fn.Origin()]; ok && (id.Pos() < d.pos || id.Pos() >= d.end) {
			used[d.key] = true
		}
	}
	return used, nil
}

// repoImporter type-checks the module's packages from their parsed files,
// each once, recording into one types.Info, and imports every other
// package from the standard library's source.
type repoImporter struct {
	fset    *token.FileSet
	pkgs    map[string][]*ast.File
	info    *types.Info
	std     types.Importer
	checked map[string]*types.Package
}

func (r *repoImporter) Import(p string) (*types.Package, error) {
	if pkg := r.checked[p]; pkg != nil {
		return pkg, nil
	}
	files, ok := r.pkgs[p]
	if !ok {
		return r.std.Import(p)
	}
	pkg, err := (&types.Config{Importer: r}).Check(p, r.fset, files, r.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", p, err)
	}
	r.checked[p] = pkg
	return pkg, nil
}
