package integration

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
	"cq.Query.AddComparison":            "builds queries with comparisons in tests of three packages",
	"server.Server.Draining":            "drain state: kept as a gauge for a /metrics endpoint",
	"durable.Store.PendingRecords":      "WAL depth: kept as a gauge for a /metrics endpoint",
	"server.Row.MarshalJSON":            "json.Marshaler: encoding/json calls it",
	"server.Row.UnmarshalJSON":          "json.Unmarshaler: encoding/json calls it",
	"server.Rows.MarshalJSON":           "json.Marshaler: encoding/json calls it",
	"server.Rows.UnmarshalJSON":         "json.Unmarshaler: encoding/json calls it",
	"engine.QueryError.Unwrap":          "errors.Is and errors.As call it",
}

// TestNoUnusedExports fails, listing them, when an exported function or
// method declared in a non-test file under internal/ is never referenced
// from a non-test file of the root module or of bench/. Such code is kept
// compiling, documented and covered for no caller.
//
// The scan is by name only (go/types would need the module loader of
// x/tools): a reference to any identifier or selector spelled like the
// function counts, wherever it resolves. A dead method that shares its
// name with a live one, or with an interface method, is therefore missed.
// References from inside the function's own declaration do not count, so
// recursion does not keep a function alive.
func TestNoUnusedExports(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	used := map[string]bool{}
	type decl struct{ key, name string }
	var decls []decl
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
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
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		rel = filepath.ToSlash(rel)
		pkg, internal := strings.CutPrefix(rel, "internal/")
		for _, d := range f.Decls {
			self := ""
			if fd, ok := d.(*ast.FuncDecl); ok {
				self = fd.Name.Name
				if internal && fd.Name.IsExported() {
					key := pkg + "." + self
					if fd.Recv != nil {
						key = pkg + "." + recvName(fd.Recv.List[0].Type) + "." + self
					}
					decls = append(decls, decl{key, self})
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name != self {
					used[id.Name] = true
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported functions found under internal/: the walk missed the module")
	}
	var unused []string
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		if !used[d.name] && unusedAllowed[d.key] == "" {
			unused = append(unused, d.key)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d exported functions under internal/ have no caller outside _test.go files; delete them, or move them into their package's tests:\n\t%s",
			len(unused), strings.Join(unused, "\n\t"))
	}
	for key := range unusedAllowed {
		if !seen[key] {
			t.Errorf("allowlisted %s is no longer declared: drop it from unusedAllowed", key)
		} else if used[key[strings.LastIndexByte(key, '.')+1:]] {
			t.Errorf("allowlisted %s now has a caller: drop it from unusedAllowed", key)
		}
	}
}

// recvName is the type name of a method receiver: T for T, *T, T[P] and
// *T[P].
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
