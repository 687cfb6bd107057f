package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"lusail/internal/benchdata/lubm"
)

func quickOpts() Options {
	return Options{Scale: 1, Timeout: 30 * time.Second, Runs: 1}
}

func TestFederationBuilders(t *testing.T) {
	opts := quickOpts()
	if f := LUBM(3, opts); len(f.Endpoints) != 3 {
		t.Errorf("LUBM endpoints = %d", len(f.Endpoints))
	}
	if f := QFed(opts); len(f.Endpoints) != 4 {
		t.Errorf("QFed endpoints = %d", len(f.Endpoints))
	}
	if f := LargeRDF(opts); len(f.Endpoints) != 13 {
		t.Errorf("LargeRDF endpoints = %d", len(f.Endpoints))
	}
	if f := Bio(opts); len(f.Endpoints) != 5 {
		t.Errorf("Bio endpoints = %d", len(f.Endpoints))
	}
}

func TestBuildEngineAllNames(t *testing.T) {
	f := LUBM(2, quickOpts())
	for _, name := range append(append([]string{}, EngineNames...), "naive", "lusail-ablade") {
		eng, err := BuildEngine(name, f)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if eng == nil {
			t.Errorf("%s: nil engine", name)
		}
	}
	if _, err := BuildEngine("bogus", f); err == nil {
		t.Error("unknown engine accepted")
	}
}

func TestRunMeasures(t *testing.T) {
	opts := quickOpts()
	f := LUBM(2, opts)
	eng, err := BuildEngine("lusail", f)
	if err != nil {
		t.Fatal(err)
	}
	m := Run(eng, f, "Q2", lubm.Q2, opts)
	if m.Err != nil {
		t.Fatalf("run: %v", m.Err)
	}
	if m.Rows == 0 || m.Requests == 0 || m.Duration <= 0 {
		t.Errorf("measurement incomplete: %+v", m)
	}
	if !strings.HasSuffix(m.Runtime(), "s") {
		t.Errorf("Runtime() = %q", m.Runtime())
	}
}

func TestRunTimeout(t *testing.T) {
	opts := quickOpts()
	opts.Timeout = 1 * time.Nanosecond
	f := LUBM(2, opts)
	eng, _ := BuildEngine("fedx", f)
	m := Run(eng, f, "Q2", lubm.Q2, opts)
	if !m.TimedOut {
		t.Errorf("expected timeout, got %+v", m)
	}
	if m.Runtime() != "TO" {
		t.Errorf("Runtime() = %q, want TO", m.Runtime())
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "prep", "fig3", "fig9", "fig10a", "fig10bc",
		"fig11", "fig12", "fig13", "fig14", "bio", "ablade", "absape", "mqo", "scale",
		"faults", "degrade", "workload", "chaos", "stats", "all"}
	for _, id := range want {
		if _, ok := Registry[id]; !ok {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if len(RegistryNames()) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(RegistryNames()), len(want))
	}
}

// Smoke-run the fast experiments end to end; the heavyweight
// comparisons (fig11-fig14) are exercised by the benchmark harness.
func TestSmokeTable1(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(&buf, quickOpts()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"QFed", "LargeRDFBench", "LUBM", "Total Triples"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q", want)
		}
	}
}

func TestSmokePreprocessing(t *testing.T) {
	var buf bytes.Buffer
	if err := Preprocessing(&buf, quickOpts()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "splendid") || !strings.Contains(buf.String(), "lusail") {
		t.Error("preprocessing output incomplete")
	}
}

func TestSmokeFig10a(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig10a(&buf, quickOpts()); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"S10", "C4", "B1"} {
		if !strings.Contains(buf.String(), q) {
			t.Errorf("Fig10a output missing %s", q)
		}
	}
	if strings.Contains(buf.String(), "ERR") {
		t.Errorf("Fig10a reported an error:\n%s", buf.String())
	}
}

func TestSmokeAblationLADE(t *testing.T) {
	var buf bytes.Buffer
	opts := quickOpts()
	if err := AblationLADE(&buf, opts); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "lusail-ablade") {
		t.Error("ablation output missing the ablated engine")
	}
	if strings.Contains(out, "ERR") {
		t.Errorf("ablation reported an error:\n%s", out)
	}
}

func TestSmokeMQO(t *testing.T) {
	var buf bytes.Buffer
	if err := MQO(&buf, quickOpts()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "batch(MQO)") || !strings.Contains(out, "sequential") {
		t.Errorf("MQO output incomplete:\n%s", out)
	}
}

func TestSmokeStatsReplay(t *testing.T) {
	var buf bytes.Buffer
	if err := StatsReplay(&buf, quickOpts()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "stats verdict: PASS — warm-pass plan requests: 0") {
		t.Errorf("warm pass still paid plan-time probes:\n%s", out)
	}
	if !strings.Contains(out, "calibration verdict: PASS") {
		t.Errorf("calibration did not lower the median q-error:\n%s", out)
	}
	for _, want := range []string{"calibration traffic: LargeRDFBench", "B8 delayed subqueries per round"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats replay output missing %q:\n%s", want, out)
		}
	}
}

func TestSmokeScale(t *testing.T) {
	var buf bytes.Buffer
	if err := Scale(&buf, quickOpts()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "256") {
		t.Errorf("scale output missing the 256-endpoint row:\n%s", out)
	}
	if strings.Contains(out, "ERR") || strings.Contains(out, "TO") {
		t.Errorf("scale run failed:\n%s", out)
	}
}

func TestSmokeFig3(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig3(&buf, quickOpts()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "LUBM-Q2") || !strings.Contains(buf.String(), "QFed-Drug") {
		t.Errorf("fig3 output incomplete:\n%s", buf.String())
	}
}

func TestSpreadRegions(t *testing.T) {
	f := LUBM(8, quickOpts()).SpreadRegions()
	if len(f.Locals) != 8 {
		t.Fatal("federation size wrong")
	}
	// The first endpoint gets the near-region profile; just assert the
	// call works end to end with a query.
	eng, err := BuildEngine("lusail", f)
	if err != nil {
		t.Fatal(err)
	}
	m := Run(eng, f, "Q3", lubm.Q3, quickOpts())
	if m.Err != nil {
		t.Fatalf("query over region-spread federation: %v", m.Err)
	}
	// Region RTTs are non-zero, so the measured duration must reflect
	// at least one round trip.
	if m.Duration < 5*time.Millisecond {
		t.Errorf("duration %v too small for WAN regions", m.Duration)
	}
}

func TestSmokeFaultSweep(t *testing.T) {
	var buf bytes.Buffer
	if err := FaultSweep(&buf, quickOpts()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "20%") {
		t.Errorf("fault sweep output missing the 20%% rate rows:\n%s", out)
	}
	if strings.Contains(out, "MISMATCH") {
		t.Errorf("fault sweep produced incorrect results under retries:\n%s", out)
	}
	// The deterministic 20%-rate / 3-retry cells must all complete.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "20%") && strings.Contains(line, " 3 ") &&
			strings.Contains(line, "ERR") {
			t.Errorf("retry budget 3 lost a query at 20%% faults: %s", line)
		}
	}
}

func TestTraceDumpRenders(t *testing.T) {
	var buf bytes.Buffer
	if err := TraceDump(&buf, quickOpts()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"phase1", "EXPLAIN ANALYZE", "→ actual", "== Q1 ==", "== Q4 ==", "== C7 ==", "optional(group 0)", "== C8 ==", "union-0-alt-1:"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace dump missing %q", want)
		}
	}
	if strings.Contains(out, "not executed") {
		t.Errorf("trace dump has a planned subquery with neither an execution record nor a reason:\n%s", out)
	}
}
