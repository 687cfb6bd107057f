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

var (
	update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")
	fig13  = flag.Bool("fig13", false, "also run the FedX, HiBISCuS and SPLENDID Fig. 13 queries against testdata/work_fig13.golden")
)

// workTable renders, per engine and query, the endpoint requests, the
// rows endpoints shipped and the result rows, one line each.
func workTable(t *testing.T, b *strings.Builder, fig string, f *Federation, engines, order []string, queries map[string]string) {
	t.Helper()
	opts := quickOpts()
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
			fmt.Fprintf(b, "%-8s %-9s %-6s requests=%d shipped=%d rows=%d\n",
				fig, ename, qname, m.Requests, m.RowsShipped, m.Rows)
		}
	}
}

// checkGolden compares got with testdata/name line by line, or rewrites
// the file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	for i, line := range wantLines {
		if i >= len(gotLines) || gotLines[i] != line {
			g := "<missing>"
			if i < len(gotLines) {
				g = gotLines[i]
			}
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, line)
		}
	}
	if len(gotLines) > len(wantLines) {
		t.Errorf("got %d lines, golden has fewer", len(gotLines))
	}
}

// TestPaperWorkGolden pins the work every engine does on the paper's
// comparison figures: per query, the endpoint requests, the rows
// endpoints shipped and the result rows. Fig. 11 and Fig. 12 cover all
// four engines, Fig. 13 Lusail only (the baselines take most of a
// minute there; TestPaperWorkFig13Golden covers them). A change that
// moves any count must regenerate the golden with -update, and the diff
// is its evidence.
func TestPaperWorkGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Fig. 11/12/13 queries")
	}
	opts := quickOpts()
	var b strings.Builder
	workTable(t, &b, "fig11", QFed(opts), EngineNames, qfed.QueryOrder, qfed.Queries)
	for _, n := range []int{2, 4} {
		workTable(t, &b, fmt.Sprintf("fig12-%d", n), LUBM(n, opts), EngineNames,
			[]string{"Q1", "Q2", "Q3", "Q4"}, lubm.Queries)
	}
	lr := LargeRDF(opts)
	for _, cat := range largerdf.CategoryOrder {
		workTable(t, &b, "fig13-"+cat, lr, []string{"lusail"}, largerdf.QueryNames(cat), largerdf.Categories[cat])
	}
	checkGolden(t, "work.golden", b.String())
}

// TestPaperWorkFig13Golden is TestPaperWorkGolden's Fig. 13 for the
// three baselines, in a golden of its own. It runs only with -fig13
// (make paper-check), being the slow part of the comparison.
func TestPaperWorkFig13Golden(t *testing.T) {
	if !*fig13 {
		t.Skip("runs with -fig13")
	}
	lr := LargeRDF(quickOpts())
	var b strings.Builder
	for _, cat := range largerdf.CategoryOrder {
		workTable(t, &b, "fig13-"+cat, lr, EngineNames[1:], largerdf.QueryNames(cat), largerdf.Categories[cat])
	}
	checkGolden(t, "work_fig13.golden", b.String())
}
