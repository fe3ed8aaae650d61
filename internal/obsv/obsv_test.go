package obsv

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRegistryDeterministicOrderAndTotals(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		// Insertion order scrambled on purpose: output order must not
		// depend on it.
		r.Counter("htm.begins", L("thread", "1")).Add(7)
		r.Counter("core.crashes").Add(3)
		r.Counter("htm.begins", L("thread", "0")).Add(5)
		r.Gauge("stm.peak_log_len").Set(42)
		h := r.Histogram("core.latency_cycles", CycleBuckets)
		h.Observe(50)
		h.Observe(2_500)
		h.Observe(9_999_999) // overflow bucket
		return r
	}
	a, b := &bytes.Buffer{}, &bytes.Buffer{}
	if err := build().WriteJSONL(a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSONL(b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("two identical registries rendered differently:\n%s\nvs\n%s", a, b)
	}
	r := build()
	if got := r.Total("htm.begins"); got != 12 {
		t.Errorf("Total(htm.begins) = %d, want 12", got)
	}
	// Every line parses as JSON with a type and name.
	for _, line := range strings.Split(strings.TrimSpace(a.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", line, err)
		}
		if m["type"] == "" || m["name"] == "" {
			t.Errorf("line missing type/name: %q", line)
		}
	}
	// Histogram accounting.
	h := r.Histogram("core.latency_cycles", CycleBuckets)
	if h.Count != 3 || h.Sum != 50+2_500+9_999_999 {
		t.Errorf("histogram count=%d sum=%d", h.Count, h.Sum)
	}
	if h.Counts[len(h.Counts)-1] != 1 {
		t.Errorf("overflow bucket = %d, want 1", h.Counts[len(h.Counts)-1])
	}
}

func TestRegistryLabelOrderInsensitive(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", L("a", "1"), L("b", "2")).Inc()
	r.Counter("x", L("b", "2"), L("a", "1")).Inc()
	if r.Len() != 1 {
		t.Fatalf("label permutations created %d series, want 1", r.Len())
	}
	if got := r.Total("x"); got != 2 {
		t.Fatalf("Total = %d, want 2", got)
	}
}

func TestSpanLogTruncation(t *testing.T) {
	l := &SpanLog{Limit: 3}
	for i := 0; i < 10; i++ {
		l.Append(SpanEvent{Cycles: int64(i), Kind: SpanCrash, Site: i})
	}
	if l.Dropped() != 7 {
		t.Fatalf("dropped = %d, want 7", l.Dropped())
	}
	events := l.Events()
	// 3 stored + 1 terminal marker.
	if len(events) != 4 {
		t.Fatalf("len(events) = %d, want 4", len(events))
	}
	last := events[len(events)-1]
	if last.Kind != SpanTruncated {
		t.Fatalf("last event kind = %q, want truncated", last.Kind)
	}
	if !strings.Contains(last.Detail, "dropped=7") {
		t.Errorf("marker detail = %q, want dropped=7", last.Detail)
	}
	// Seq is dense and monotonic over stored events.
	for i, e := range events {
		if e.Seq != int64(i+1) {
			t.Errorf("event %d has seq %d", i, e.Seq)
		}
	}
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != 4 {
		t.Errorf("JSONL lines = %d, want 4", n)
	}
}

// TestSpanLogDropNoAlloc gates the crash-storm fast path: an Append past
// the cap only counts, so it must not allocate (the marker Detail is
// rendered on read, not per drop).
func TestSpanLogDropNoAlloc(t *testing.T) {
	l := &SpanLog{Limit: 4}
	e := SpanEvent{Cycles: 7, Kind: SpanCrash, Detail: "attempt=1"}
	for i := 0; i < 6; i++ {
		l.Append(e)
	}
	if allocs := testing.AllocsPerRun(1000, func() { l.Append(e) }); allocs != 0 {
		t.Errorf("Append on a full log allocates %v times, want 0", allocs)
	}
	if got := l.Events()[l.Len()-1].Detail; got != "dropped=1003 limit=4" {
		t.Errorf("marker detail = %q, want dropped=1003 limit=4", got)
	}
}

// BenchmarkSpanLogAppend measures Append on the stored path (a fresh
// log per DefaultSpanLimit events) and on the dropped path (a full log).
func BenchmarkSpanLogAppend(b *testing.B) {
	e := SpanEvent{Cycles: 42, Thread: 1, Trace: 9, Kind: SpanCommit, Site: 3, Call: "read", Variant: "htm"}
	b.Run("stored", func(b *testing.B) {
		b.ReportAllocs()
		l := &SpanLog{}
		for i := 0; i < b.N; i++ {
			if l.Full() {
				l = &SpanLog{}
			}
			l.Append(e)
		}
	})
	b.Run("dropped", func(b *testing.B) {
		b.ReportAllocs()
		l := &SpanLog{Limit: 1}
		l.Append(e)
		for i := 0; i < b.N; i++ {
			l.Append(e)
		}
	})
}

func TestSpanLogNoTruncationUnderLimit(t *testing.T) {
	l := &SpanLog{Limit: 10}
	for i := 0; i < 5; i++ {
		if !l.Append(SpanEvent{Kind: SpanBegin}) {
			t.Fatal("append under limit refused")
		}
	}
	if l.Dropped() != 0 || l.Len() != 5 {
		t.Fatalf("dropped=%d len=%d, want 0/5", l.Dropped(), l.Len())
	}
}

// TestProfileAttributionSums drives the profile through a synthetic call
// story and checks the exactness invariant: flat cycles sum to the
// machine's total charged cycles.
func TestProfileAttributionSums(t *testing.T) {
	p := NewProfile()
	// main starts at cycle 0.
	p.Sync([]string{"main"}, 0, 0)
	p.Enter("handler", 10, 5)    // main ran 10 cycles
	p.Lib("read", 3, 25, 60, 12) // handler ran 15, read cost 35
	p.Enter("helper", 80, 20)    // handler ran 20 more
	p.Exit(95, 25)               // helper ran 15
	p.Exit(100, 30)              // handler ran 5 more
	p.Finish(130, 40)            // main ran 30 more

	if got := p.TotalCycles(); got != 130 {
		t.Fatalf("TotalCycles = %d, want 130", got)
	}
	var flatSum int64
	byName := map[string]FuncStat{}
	for _, f := range p.Funcs() {
		flatSum += f.FlatCycles
		key := f.Name
		if f.Lib {
			key = "lib:" + f.Name
		}
		byName[key] = f
	}
	if flatSum != 130 {
		t.Fatalf("flat cycles sum = %d, want 130", flatSum)
	}
	if got := byName["main"].FlatCycles; got != 40 {
		t.Errorf("main flat = %d, want 40", got)
	}
	if got := byName["handler"].FlatCycles; got != 40 {
		t.Errorf("handler flat = %d, want 40", got)
	}
	if got := byName["helper"].FlatCycles; got != 15 {
		t.Errorf("helper flat = %d, want 15", got)
	}
	if got := byName["lib:read"].FlatCycles; got != 35 {
		t.Errorf("read flat = %d, want 35", got)
	}
	// Cumulative: handler covers 10..100 = 90 cycles.
	if got := byName["handler"].CumCycles; got != 90 {
		t.Errorf("handler cum = %d, want 90", got)
	}
	// main's cumulative spans the whole run.
	if got := byName["main"].CumCycles; got != 130 {
		t.Errorf("main cum = %d, want 130", got)
	}
	// Site attribution.
	sites := p.Sites()
	if len(sites) != 1 || sites[0].Site != 3 || sites[0].Cycles != 35 {
		t.Errorf("sites = %+v, want one read@3 with 35 cycles", sites)
	}
	// Steps: 40 total retired.
	if got := p.TotalSteps(); got != 40 {
		t.Errorf("TotalSteps = %d, want 40", got)
	}
}

// TestProfileSyncAfterRollback models a snapshot restore: the stack is
// rebuilt mid-run and attribution still sums exactly.
func TestProfileSyncAfterRollback(t *testing.T) {
	p := NewProfile()
	p.Sync([]string{"main"}, 0, 0)
	p.Enter("worker", 10, 2)
	p.Enter("deep", 30, 6)
	// Crash: restore rewinds to main/worker (common prefix keeps entry
	// times).
	p.Sync([]string{"main", "worker"}, 50, 10)
	p.Exit(70, 14) // worker returns
	p.Finish(90, 18)

	var flatSum int64
	for _, f := range p.Funcs() {
		flatSum += f.FlatCycles
	}
	if flatSum != 90 {
		t.Fatalf("flat sum after sync = %d, want 90", flatSum)
	}
	// Re-entering deeper frames through Sync must not recount calls.
	p2 := NewProfile()
	p2.Sync([]string{"main"}, 0, 0)
	p2.Enter("f", 5, 1)
	p2.Sync([]string{"main", "f", "g"}, 10, 2) // restore into a deeper stack
	p2.Finish(20, 4)
	for _, f := range p2.Funcs() {
		if f.Name == "g" && f.Calls != 0 {
			t.Errorf("sync-pushed frame counted %d calls, want 0", f.Calls)
		}
		if f.Name == "f" && f.Calls != 1 {
			t.Errorf("f calls = %d, want 1", f.Calls)
		}
	}
}

func TestProfileRecursionCumNotDoubleCounted(t *testing.T) {
	p := NewProfile()
	p.Sync([]string{"main"}, 0, 0)
	p.Enter("rec", 10, 1)
	p.Enter("rec", 20, 2)
	p.Exit(30, 3)
	p.Exit(40, 4)
	p.Finish(50, 5)
	for _, f := range p.Funcs() {
		if f.Name == "rec" {
			// Outer rec spans 10..40 = 30; the inner frame must not add.
			if f.CumCycles != 30 {
				t.Errorf("rec cum = %d, want 30", f.CumCycles)
			}
		}
	}
}

func TestProfileJSONLAndRender(t *testing.T) {
	p := NewProfile()
	p.Sync([]string{"main"}, 0, 0)
	p.Lib("malloc", 1, 5, 40, 3)
	p.Finish(100, 10)
	var buf bytes.Buffer
	if err := p.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var total struct {
		Type   string `json:"type"`
		Cycles int64  `json:"cycles"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &total); err != nil {
		t.Fatal(err)
	}
	if total.Type != "total" || total.Cycles != 100 {
		t.Errorf("total line = %+v, want total/100", total)
	}
	out := p.RenderTop(10)
	if !strings.Contains(out, "lib:malloc") || !strings.Contains(out, "total") {
		t.Errorf("RenderTop missing rows:\n%s", out)
	}
}
