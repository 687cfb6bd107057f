package lusail

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"lusail/internal/core"
	"lusail/internal/stats"
)

// The configuration surface, pinned. Every independent knob doubles the
// configurations tests and benchmarks have to cover, so the surface may
// only grow by editing a number here, in review, next to the reason.
const (
	wantConfigFields  = 11 // fields of core.Config
	wantEngineOptions = 7  // exported With*/Without* options in lusail.go, WithHTTP* (per-endpoint transport) excluded
	wantServerFlags   = 22 // flags cmd/lusail-server/main.go defines
	wantStatsFields   = 1  // fields of stats.Config (StatisticsConfig)
	// context.WithValue call sites in non-test Go outside the benchmark
	// harness: the span and the remote parent. A value riding the
	// context is a parameter no signature shows.
	wantContextKeys = 2
	// Exported methods on *Federation in lusail.go: one query call
	// (QueryStreamTraced, with Query its collecting shorthand), Explain
	// and ExplainAnalyze, and the operator hooks.
	wantFederationMethods = 12
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
	check("stats.Config fields", reflect.TypeOf(stats.Config{}).NumField(), wantStatsFields)

	options, methods := 0, 0
	for _, d := range parseGo(t, "lusail.go").Decls {
		fn, ok := d.(*ast.FuncDecl)
		switch {
		case !ok || !fn.Name.IsExported():
		case fn.Recv == nil:
			if strings.HasPrefix(fn.Name.Name, "With") && !strings.HasPrefix(fn.Name.Name, "WithHTTP") {
				options++
			}
		case types.ExprString(fn.Recv.List[0].Type) == "*Federation":
			methods++
		}
	}
	check("engine options", options, wantEngineOptions)
	check("Federation methods", methods, wantFederationMethods)
	check("lusail-server flags", len(serverFlagNames(t)), wantServerFlags)

	keys := 0
	for _, f := range programFiles(t) {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && types.ExprString(call.Fun) == "context.WithValue" {
				keys++
			}
			return true
		})
	}
	check("context.WithValue call sites", keys, wantContextKeys)
}

// The benchmark starts lusail-server with the flags of bench/server.go's
// serverFlags literal; a flag deleted here would only surface when the
// benchmark runs, since the harness's own tests start no server.
func TestBenchmarkServerFlagsAreDefined(t *testing.T) {
	var lit *ast.CompositeLit
	for _, d := range parseGo(t, "bench/server.go").Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			if len(vs.Names) == 1 && vs.Names[0].Name == "serverFlags" && len(vs.Values) == 1 {
				lit, _ = vs.Values[0].(*ast.CompositeLit)
			}
		}
	}
	if lit == nil {
		t.Fatal("bench/server.go has no serverFlags slice literal")
	}
	defined := serverFlagNames(t)
	checked := 0
	for _, e := range lit.Elts {
		bl, ok := e.(*ast.BasicLit)
		if !ok || bl.Kind != token.STRING {
			t.Fatalf("serverFlags element %T is not a string literal", e)
		}
		arg, err := strconv.Unquote(bl.Value)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(arg, "-") {
			continue // a flag's value
		}
		name, _, _ := strings.Cut(strings.TrimLeft(arg, "-"), "=")
		if !defined[name] {
			t.Errorf("bench/server.go passes %s, which cmd/lusail-server/main.go does not define", arg)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("serverFlags names no flag")
	}
}

// serverFlagNames returns the flags cmd/lusail-server/main.go defines.
func serverFlagNames(t *testing.T) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	ast.Inspect(parseGo(t, "cmd/lusail-server/main.go"), func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		// flag.String(name, ...), flag.Var(&v, name, ...): every definer
		// takes the flag's name as its first string literal; Parse and
		// Usage take none.
		if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "flag" {
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					names[name] = true
					break
				}
			}
		}
		return true
	})
	return names
}

func parseGo(t *testing.T, path string) *ast.File {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// The README's metric reference documents every family the program can
// register, and nothing else: a family added, renamed or deleted without
// the table following fails here. Families are the lusail_* string
// literals of non-test Go code outside the benchmark harness (its own
// module); documented ones are the first column of the table.
func TestMetricReferenceMatchesRegisteredFamilies(t *testing.T) {
	family := regexp.MustCompile(`^lusail_[a-z0-9_]+$`)
	registered := map[string]bool{}
	for _, f := range programFiles(t) {
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if v, err := strconv.Unquote(lit.Value); err == nil && family.MatchString(v) {
					registered[v] = true
				}
			}
			return true
		})
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "#### Metric reference")
	if !ok {
		t.Fatal("README.md has no metric reference section")
	}
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `(lusail_[a-z0-9_]+)` \\|").FindAllStringSubmatch(table, -1) {
		documented[m[1]] = true
	}

	for _, name := range sortedKeys(registered) {
		if !documented[name] {
			t.Errorf("%s is registered but missing from README's metric reference", name)
		}
	}
	for _, name := range sortedKeys(documented) {
		if !registered[name] {
			t.Errorf("%s is in README's metric reference but registered nowhere", name)
		}
	}

	// The SLO recording rules read only families the program registers.
	_, rules, _ := strings.Cut(string(readme), "**SLO burn rates.**")
	_, rules, _ = strings.Cut(rules, "```yaml\n")
	rules, _, ok = strings.Cut(rules, "```")
	if !ok {
		t.Fatal("README.md has no SLO recording-rule block")
	}
	series := regexp.MustCompile(`\blusail_[a-z0-9_]+`).FindAllString(rules, -1)
	if len(series) == 0 {
		t.Fatal("the SLO recording rules read no lusail_* series")
	}
	for _, s := range series {
		name := s
		for _, suffix := range []string{"_bucket", "_count", "_sum"} {
			name = strings.TrimSuffix(name, suffix)
		}
		if !registered[name] {
			t.Errorf("the SLO recording rules read %s, which no family registers", s)
		}
	}
}

// programFiles parses the non-test Go code outside the benchmark
// harness, which is its own module.
func programFiles(t *testing.T) []*ast.File {
	t.Helper()
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (path == "bench" || strings.HasPrefix(d.Name(), ".")) && path != ".":
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		files = append(files, f)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
