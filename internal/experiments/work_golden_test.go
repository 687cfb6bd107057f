package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lusail/internal/benchdata/largerdf"
	"lusail/internal/benchdata/lubm"
	"lusail/internal/benchdata/qfed"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// TestPaperWorkGolden pins the work every engine does on the paper's
// comparison figures: per query, the endpoint requests, the rows
// endpoints shipped and the result rows. Fig. 11 and Fig. 12 cover all
// four engines, Fig. 13 Lusail only (the baselines take most of a
// minute there). A change that moves any count must regenerate the
// golden with -update, and the diff is its evidence.
func TestPaperWorkGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Fig. 11/12/13 queries")
	}
	opts := quickOpts()
	var b strings.Builder
	table := func(fig string, f *Federation, engines, order []string, queries map[string]string) {
		for _, ename := range engines {
			for _, qname := range order {
				eng, err := BuildEngine(ename, f)
				if err != nil {
					t.Fatal(err)
				}
				m := Run(eng, f, qname, queries[qname], opts)
				if m.Err != nil {
					t.Errorf("%s %s %s: %v", fig, ename, qname, m.Err)
				}
				fmt.Fprintf(&b, "%-8s %-9s %-6s requests=%d shipped=%d rows=%d\n",
					fig, ename, qname, m.Requests, m.RowsShipped, m.Rows)
			}
		}
	}
	table("fig11", QFed(opts), EngineNames, qfed.QueryOrder, qfed.Queries)
	for _, n := range []int{2, 4} {
		table(fmt.Sprintf("fig12-%d", n), LUBM(n, opts), EngineNames,
			[]string{"Q1", "Q2", "Q3", "Q4"}, lubm.Queries)
	}
	lr := LargeRDF(opts)
	for _, cat := range largerdf.CategoryOrder {
		table("fig13-"+cat, lr, []string{"lusail"}, largerdf.QueryNames(cat), largerdf.Categories[cat])
	}

	path := filepath.Join("testdata", "work.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	got := strings.Split(b.String(), "\n")
	for i, line := range strings.Split(string(want), "\n") {
		if i >= len(got) || got[i] != line {
			g := "<missing>"
			if i < len(got) {
				g = got[i]
			}
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, line)
		}
	}
	if len(got) > len(strings.Split(string(want), "\n")) {
		t.Errorf("got %d lines, golden has fewer", len(got))
	}
}
