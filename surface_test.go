package lusail

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"

	"lusail/internal/core"
)

// The configuration surface, pinned. Every independent knob doubles the
// configurations tests and benchmarks have to cover, so the surface may
// only grow by editing a number here, in review, next to the reason.
const (
	wantConfigFields  = 20 // fields of core.Config
	wantEngineOptions = 16 // exported With*/Without* options in lusail.go, WithHTTP* (per-endpoint transport) excluded
	wantServerFlags   = 37 // flags cmd/lusail-server/main.go defines
)

func TestConfigurationSurfaceIsPinned(t *testing.T) {
	check := func(what string, got, want int) {
		t.Helper()
		if got > want {
			t.Errorf("%s: %d, pinned at %d — a knob was added: justify it or make it a constant", what, got, want)
		} else if got < want {
			t.Errorf("%s: %d, pinned at %d — a knob was removed: lower the pinned number", what, got, want)
		}
	}
	check("core.Config fields", reflect.TypeOf(core.Config{}).NumField(), wantConfigFields)

	fset := token.NewFileSet()
	parse := func(path string) *ast.File {
		t.Helper()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	options := 0
	for _, d := range parse("lusail.go").Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil &&
			strings.HasPrefix(fn.Name.Name, "With") && !strings.HasPrefix(fn.Name.Name, "WithHTTP") {
			options++
		}
	}
	check("engine options", options, wantEngineOptions)

	flags := 0
	ast.Inspect(parse("cmd/lusail-server/main.go"), func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		// flag.String(name, ...), flag.Var(&v, name, ...): every definer
		// takes the flag's name as a string literal; Parse and Usage don't.
		if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "flag" {
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					flags++
					break
				}
			}
		}
		return true
	})
	check("lusail-server flags", flags, wantServerFlags)
}
