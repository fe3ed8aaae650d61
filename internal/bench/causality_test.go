package bench

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/core"
	"github.com/firestarter-go/firestarter/internal/faultinj"
	"github.com/firestarter-go/firestarter/internal/libmodel"
	"github.com/firestarter-go/firestarter/internal/obsv"
	"github.com/firestarter-go/firestarter/internal/supervisor"
)

// rewindSpans runs a traced rewind-and-discard campaign: lighttpd-pool
// under core.ModeRewind with the AblationDomains fail-stop fault in
// mod_ssi's pread, so the log carries real crash→discard pairs (the
// containment matrix emits none).
func rewindSpans(t *testing.T) []obsv.SpanEvent {
	t.Helper()
	app := apps.LighttpdPool()
	prog, err := app.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := findLibBlock(prog, "mod_ssi", "pread", 1)
	if err != nil {
		t.Fatal(err)
	}
	fault := faultinj.Fault{ID: 1, Kind: faultinj.FailStop, Func: ref.Func, Block: ref.Block}
	r := Runner{Requests: 60}.withDefaults()
	lr, err := r.ladderRun(app, bootOpts{
		cfg: core.Config{Mode: core.ModeRewind}, fault: &fault, model: libmodel.WithArena(),
	}, supervisor.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if errs := lr.reconcile(); len(errs) > 0 {
		t.Fatalf("campaign did not reconcile: %v", errs)
	}
	return lr.Spans
}

// stamp numbers a mutated log as WriteTrace would, so findings name
// exact positions.
func stamp(spans []obsv.SpanEvent) []obsv.SpanEvent {
	for i := range spans {
		spans[i].Seq = int64(i + 1)
	}
	return spans
}

// indexOf returns the first span at or after from with the given kind.
func indexOf(t *testing.T, spans []obsv.SpanEvent, from int, kind string) int {
	t.Helper()
	for i := from; i < len(spans); i++ {
		if spans[i].Kind == kind {
			return i
		}
	}
	t.Fatalf("no %s span at or after %d", kind, from)
	return -1
}

func insertAt(spans []obsv.SpanEvent, i int, e obsv.SpanEvent) []obsv.SpanEvent {
	spans = append(spans, obsv.SpanEvent{})
	copy(spans[i+1:], spans[i:])
	spans[i] = e
	return spans
}

func removeAt(spans []obsv.SpanEvent, i int) []obsv.SpanEvent {
	return append(spans[:i], spans[i+1:]...)
}

// TestCausalityOnRewindCampaign checks the span-log contract on a real
// in-process log with discards, then breaks the log one rule at a time:
// each mutation must produce exactly its own finding.
func TestCausalityOnRewindCampaign(t *testing.T) {
	base := rewindSpans(t)
	discards := 0
	for _, e := range base {
		if e.Kind == obsv.SpanDomainDiscard {
			discards++
		}
	}
	if discards == 0 {
		t.Fatal("rewind campaign emitted no domain-discard spans")
	}
	if got := obsv.CheckCausality(stamp(append([]obsv.SpanEvent(nil), base...))); len(got) != 0 {
		t.Fatalf("clean campaign has findings: %v", got)
	}

	mutations := []struct {
		name   string
		mutate func(s []obsv.SpanEvent) ([]obsv.SpanEvent, string)
	}{
		{"discard after commit", func(s []obsv.SpanEvent) ([]obsv.SpanEvent, string) {
			i := indexOf(t, s, 0, obsv.SpanDomainDiscard)
			d := s[i]
			s = removeAt(s, i)
			j := indexOf(t, s, i, obsv.SpanCommit) + 1
			return insertAt(s, j, d), fmt.Sprintf(`seq %d: domain-discard after "commit", want crash`, j+1)
		}},
		{"unswitched dom", func(s []obsv.SpanEvent) ([]obsv.SpanEvent, string) {
			i := indexOf(t, s, 0, obsv.SpanDomainDiscard)
			s[i].Detail = "dom=1000000 mark=0"
			return s, fmt.Sprintf("seq %d: domain-discard of dom 1000000 with no prior domain-switch", i+1)
		}},
		{"violation followed by retry", func(s []obsv.SpanEvent) ([]obsv.SpanEvent, string) {
			i := indexOf(t, s, 0, obsv.SpanRetry)
			v := s[i]
			v.Kind, v.Site, v.Call, v.Detail = obsv.SpanDomainViolation, 0, "", "addr=0x60000040 dom=1"
			return insertAt(s, i, v), fmt.Sprintf(
				`seq %d: domain-violation (seq %d) followed by "retry", want crash/shed/unrecovered`, i+2, i+1)
		}},
		{"dropped req-done", func(s []obsv.SpanEvent) ([]obsv.SpanEvent, string) {
			i := indexOf(t, s, 0, obsv.SpanReqDone)
			tr := s[i].Trace
			return removeAt(s, i), fmt.Sprintf("trace %d: 0 terminal spans, want 1", tr)
		}},
		{"duplicated req-start", func(s []obsv.SpanEvent) ([]obsv.SpanEvent, string) {
			i := indexOf(t, s, 0, obsv.SpanReqStart)
			start := s[i]
			return insertAt(s, i+1, start), fmt.Sprintf("trace %d: 2 req-start spans, want 1", start.Trace)
		}},
		{"req-lost on a done trace", func(s []obsv.SpanEvent) ([]obsv.SpanEvent, string) {
			i := indexOf(t, s, 0, obsv.SpanReqDone)
			lost := s[i]
			lost.Kind, lost.Detail, lost.Cause = obsv.SpanReqLost, "", "conn-closed"
			return insertAt(s, i+1, lost), fmt.Sprintf("trace %d: 2 terminal spans, want 1", lost.Trace)
		}},
		{"orphan ref", func(s []obsv.SpanEvent) ([]obsv.SpanEvent, string) {
			var maxTrace int64
			for _, e := range s {
				maxTrace = max(maxTrace, e.Trace)
			}
			last := s[len(s)-1]
			orphan := obsv.SpanEvent{Cycles: last.Cycles, Trace: maxTrace + 1, Kind: obsv.SpanInject}
			return append(s, orphan), fmt.Sprintf("trace %d: orphaned trace reference (no req-start)", maxTrace+1)
		}},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			spans, want := m.mutate(append([]obsv.SpanEvent(nil), base...))
			if got := obsv.CheckCausality(stamp(spans)); !reflect.DeepEqual(got, []string{want}) {
				t.Errorf("findings = %q, want [%q]", got, want)
			}
		})
	}
}
