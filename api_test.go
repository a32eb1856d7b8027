package weakstab_test

// API-shape guard: every operation under internal/ has one function, and
// a cancellable one takes ctx first under its XContext name. An exported
// X declared next to an exported XContext — in the same package, or on the
// same receiver type — is a ctx-free twin and fails the test. Only the
// public facade (stab.go) keeps ctx-free conveniences.

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

func TestNoContextTwins(t *testing.T) {
	// decls maps "dir|receiver|name" to the file declaring it; the
	// receiver is "" for package-level functions.
	decls := map[string]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			decls[filepath.Dir(path)+"|"+receiverName(fn)+"|"+fn.Name.Name] = path
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var twins []string
	for key, path := range decls {
		base, ok := strings.CutSuffix(key, "Context")
		if !ok || strings.HasSuffix(base, "|") {
			continue
		}
		if _, dup := decls[base]; dup {
			parts := strings.Split(key, "|")
			name := parts[2]
			if parts[1] != "" {
				name = parts[1] + "." + name
			}
			twins = append(twins, path+": "+name+" has a ctx-free twin "+strings.TrimSuffix(name, "Context"))
		}
	}
	sort.Strings(twins)
	for _, tw := range twins {
		t.Error(tw)
	}
}

// receiverName returns the base type name of fn's receiver ("" for a
// package-level function), with pointers and type parameters stripped.
func receiverName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	typ := fn.Recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr:
			typ = tt.X
		case *ast.IndexListExpr:
			typ = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}
