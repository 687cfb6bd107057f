package trace

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var s *Span
	c := s.StartChild("x")
	if c != nil {
		t.Fatalf("nil span StartChild = %v, want nil", c)
	}
	// None of these may panic.
	c.End()
	c.Set("k", 1)
	c.Add("k", 1)
	c.SetDuration(time.Second)
	if c.Duration() != 0 || c.Get("k") != nil || c.Int("k") != 0 {
		t.Fatal("nil span accessors should return zero values")
	}
	if c.Find("x") != nil || len(c.FindAll("x")) != 0 || len(c.Children()) != 0 {
		t.Fatal("nil span walkers should return empty")
	}
	if got := c.String(); got != "" {
		t.Fatalf("nil span String = %q, want empty", got)
	}
	var tr *Trace
	if tr.String() != "" {
		t.Fatal("nil trace String should be empty")
	}
}

func TestContextAttachment(t *testing.T) {
	ctx := context.Background()
	if SpanFrom(ctx) != nil {
		t.Fatal("empty context should carry no span")
	}
	if got := WithSpan(ctx, nil); got != ctx {
		t.Fatal("attaching a nil span should return ctx unchanged")
	}
	tr := New("query")
	ctx = WithSpan(ctx, tr.Root)
	if SpanFrom(ctx) != tr.Root {
		t.Fatal("SpanFrom should return the attached span")
	}
}

func TestTreeAndRender(t *testing.T) {
	tr := New("query")
	sel := tr.Root.StartChild("source-selection")
	sel.Set("asks", int64(4))
	sel.End()
	p1 := tr.Root.StartChild("phase1")
	sq := p1.StartChild("sq0")
	sq.Set("rows", int64(120))
	sq.SetDuration(8 * time.Millisecond)
	p1.End()
	tr.Root.End()

	if got := tr.Root.Find("sq0"); got != sq {
		t.Fatalf("Find(sq0) = %v", got)
	}
	if n := len(tr.Root.FindAll("phase1")); n != 1 {
		t.Fatalf("FindAll(phase1) = %d spans, want 1", n)
	}
	if got := sq.Int("rows"); got != 120 {
		t.Fatalf("Int(rows) = %d, want 120", got)
	}
	if got := tr.Root.SumInt("rows"); got != 120 {
		t.Fatalf("SumInt(rows) = %d, want 120", got)
	}
	out := tr.String()
	for _, want := range []string{"query", "source-selection", "asks=4", "sq0", "rows=120", "8.00ms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered trace missing %q:\n%s", want, out)
		}
	}
	// Children indent deeper than their parent.
	lines := strings.Split(out, "\n")
	if !strings.HasPrefix(lines[1], "  ") || !strings.HasPrefix(lines[3], "    ") {
		t.Fatalf("expected indented tree:\n%s", out)
	}
}

func TestSetReplaces(t *testing.T) {
	tr := New("q")
	tr.Root.Set("k", int64(1))
	tr.Root.Set("k", int64(2))
	if got := tr.Root.Int("k"); got != 2 {
		t.Fatalf("Int(k) = %d, want 2", got)
	}
	if n := len(tr.Root.Attrs()); n != 1 {
		t.Fatalf("attrs = %d, want 1", n)
	}
}

func TestEndIsIdempotent(t *testing.T) {
	tr := New("q")
	time.Sleep(time.Millisecond)
	tr.Root.End()
	d := tr.Root.Duration()
	if d == 0 {
		t.Fatal("End should stamp a non-zero duration")
	}
	tr.Root.End()
	if tr.Root.Duration() != d {
		t.Fatal("second End should not re-stamp")
	}
}

// Concurrent children appends mirror phase-1's parallel subqueries.
func TestConcurrentChildren(t *testing.T) {
	tr := New("q")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := tr.Root.StartChild("sq")
			c.Set("rows", int64(1))
			c.End()
		}()
	}
	wg.Wait()
	if n := len(tr.Root.Children()); n != 32 {
		t.Fatalf("children = %d, want 32", n)
	}
	if got := tr.Root.SumInt("rows"); got != 32 {
		t.Fatalf("SumInt(rows) = %d, want 32", got)
	}
}

// Concurrent Adds mirror phase-1's parallel requests counting their
// retries on the phase span: none is lost (run with -race).
func TestConcurrentAdd(t *testing.T) {
	sp := New("q").Root
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				sp.Add("retries", 1)
			}
		}()
	}
	wg.Wait()
	if got := sp.Int("retries"); got != 320 {
		t.Fatalf("retries = %d, want 320", got)
	}
}
