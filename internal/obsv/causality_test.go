package obsv

import (
	"reflect"
	"testing"
)

// sp builds a span on replica 0, thread 0; onThread and withDetail set
// the fields the domain rules key on.
func sp(kind string, trace int64) SpanEvent { return SpanEvent{Kind: kind, Trace: trace} }

func onThread(e SpanEvent, replica, thread int) SpanEvent {
	e.Replica, e.Thread = replica, thread
	return e
}

func withDetail(e SpanEvent, detail string) SpanEvent {
	e.Detail = detail
	return e
}

// TestCausalityRules covers every rule of the span-log contract, the
// legal shapes next to each one, and the shapes some former copy of the
// rules accepted (done+lost and lost+lost without a start).
func TestCausalityRules(t *testing.T) {
	discard := func(dom string) SpanEvent { return withDetail(sp(SpanDomainDiscard, 0), "dom="+dom+" mark=0") }
	switchTo := func(dom string) SpanEvent { return withDetail(sp(SpanDomainSwitch, 0), "dom="+dom) }
	violation := sp(SpanDomainViolation, 0)
	cases := []struct {
		name  string
		spans []SpanEvent
		want  []string
	}{
		{"clean chain", []SpanEvent{sp(SpanReqStart, 1), sp(SpanBegin, 1), sp(SpanCrash, 1),
			sp(SpanRecovered, 1), sp(SpanReqDone, 1)}, nil},
		{"lone req-lost is legal", []SpanEvent{sp(SpanReqLost, 1)}, nil},
		{"trace 0 is exempt", []SpanEvent{sp(SpanReqStart, 0), sp(SpanReqStart, 0), sp(SpanInject, 0)}, nil},
		{"duplicate req-start", []SpanEvent{sp(SpanReqStart, 1), sp(SpanReqStart, 1), sp(SpanReqDone, 1)},
			[]string{"trace 1: 2 req-start spans, want 1"}},
		{"unterminated", []SpanEvent{sp(SpanReqStart, 1), sp(SpanBegin, 1)},
			[]string{"trace 1: 0 terminal spans, want 1"}},
		{"done then lost", []SpanEvent{sp(SpanReqStart, 1), sp(SpanReqDone, 1), sp(SpanReqLost, 1)},
			[]string{"trace 1: 2 terminal spans, want 1"}},
		{"done without start", []SpanEvent{sp(SpanReqDone, 1)},
			[]string{"trace 1: req-done without req-start"}},
		{"done and lost without start", []SpanEvent{sp(SpanReqDone, 1), sp(SpanReqLost, 1)},
			[]string{"trace 1: 2 terminal spans, want 1", "trace 1: req-done without req-start"}},
		{"two lost without start", []SpanEvent{sp(SpanReqLost, 1), sp(SpanReqLost, 1)},
			[]string{"trace 1: 2 terminal spans, want 1"}},
		{"orphan ref", []SpanEvent{sp(SpanInject, 5)},
			[]string{"trace 5: orphaned trace reference (no req-start)"}},
		{"ref before start is not an orphan", []SpanEvent{sp(SpanHandoff, 1), sp(SpanReqStart, 1),
			sp(SpanReqDone, 1)}, nil},

		{"discard after crash", []SpanEvent{switchTo("1"), sp(SpanBegin, 0), sp(SpanCrash, 0), discard("1")}, nil},
		{"discard after commit", []SpanEvent{switchTo("1"), sp(SpanBegin, 0), sp(SpanCommit, 0), discard("1")},
			[]string{`seq 0: domain-discard after "commit", want crash`}},
		{"discard with no boundary", []SpanEvent{switchTo("1"), discard("1")},
			[]string{`seq 0: domain-discard after "no transaction boundary", want crash`}},
		{"boundary is per thread", []SpanEvent{switchTo("1"), sp(SpanCrash, 0),
			onThread(sp(SpanCommit, 0), 0, 1), discard("1")}, nil},
		{"boundary is per replica", []SpanEvent{onThread(switchTo("1"), 1, 0), onThread(sp(SpanCrash, 0), 1, 0),
			onThread(sp(SpanCommit, 0), 2, 0), onThread(discard("1"), 1, 0)}, nil},
		{"unswitched dom", []SpanEvent{sp(SpanCrash, 0), discard("2")},
			[]string{"seq 0: domain-discard of dom 2 with no prior domain-switch"}},
		{"dom 0 needs no switch", []SpanEvent{sp(SpanCrash, 0), discard("0")}, nil},
		{"switch is per replica", []SpanEvent{onThread(switchTo("1"), 1, 0), onThread(sp(SpanCrash, 0), 2, 0),
			onThread(discard("1"), 2, 0)},
			[]string{"seq 0: domain-discard of dom 1 with no prior domain-switch"}},
		{"violation resolved", []SpanEvent{violation, sp(SpanCrash, 0), violation, sp(SpanShed, 0),
			violation, sp(SpanUnrecovered, 0)}, nil},
		{"violation waits for its own thread", []SpanEvent{violation, onThread(sp(SpanRetry, 0), 0, 1),
			onThread(sp(SpanRetry, 0), 1, 0), sp(SpanCrash, 0)}, nil},
		{"violation followed by retry", []SpanEvent{violation, sp(SpanRetry, 0)},
			[]string{`seq 0: domain-violation (seq 0) followed by "retry", want crash/shed/unrecovered`}},
		{"violation pending at end", []SpanEvent{violation},
			[]string{"seq 0: domain-violation with no following span"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := CheckCausality(c.spans); !reflect.DeepEqual(got, c.want) {
				t.Errorf("findings = %q, want %q", got, c.want)
			}
		})
	}
}

// TestCausalityFindingOrder: order-sensitive findings come first in
// stream order (named by seq), then pending violations, then trace
// findings in ascending trace order whatever order the traces arrived.
func TestCausalityFindingOrder(t *testing.T) {
	spans := []SpanEvent{
		sp(SpanReqStart, 9),
		sp(SpanInject, 4),
		sp(SpanCommit, 0),
		withDetail(sp(SpanDomainDiscard, 0), "dom=0"),
		sp(SpanDomainViolation, 0),
		sp(SpanRetry, 0),
		onThread(sp(SpanDomainViolation, 0), 0, 3),
		sp(SpanReqDone, 2),
	}
	for i := range spans {
		spans[i].Seq = int64(i + 1)
	}
	want := []string{
		`seq 4: domain-discard after "commit", want crash`,
		`seq 6: domain-violation (seq 5) followed by "retry", want crash/shed/unrecovered`,
		"seq 7: domain-violation with no following span",
		"trace 2: req-done without req-start",
		"trace 4: orphaned trace reference (no req-start)",
		"trace 9: 0 terminal spans, want 1",
	}
	var c Causality
	for i, e := range spans {
		c.Observe(e)
		if i == 3 {
			// Mid-stream, Findings reports what the prefix shows so far.
			if got, want := c.Findings(), []string{want[0], want[4], want[5]}; !reflect.DeepEqual(got, want) {
				t.Errorf("mid-stream findings = %q, want %q", got, want)
			}
		}
	}
	if got := c.Findings(); !reflect.DeepEqual(got, want) {
		t.Errorf("findings =\n%q\nwant\n%q", got, want)
	}
	if got := CheckCausality(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("CheckCausality disagrees with the streaming checker: %q", got)
	}
}

func TestRecoveryKind(t *testing.T) {
	for _, k := range []string{SpanAbort, SpanCrash, SpanRetry, SpanInject, SpanLatchSTM, SpanRecovered,
		SpanUnrecovered, SpanShed, SpanLatchDomains, SpanDomainDiscard, SpanDomainViolation} {
		if !RecoveryKind(k) {
			t.Errorf("%s is not a recovery kind", k)
		}
	}
	for _, k := range []string{SpanBegin, SpanCommit, SpanReqStart, SpanReqDone, SpanReqLost,
		SpanDomainSwitch, SpanHandoff, SpanReboot, SpanTruncated} {
		if RecoveryKind(k) {
			t.Errorf("%s is a recovery kind", k)
		}
	}
}
