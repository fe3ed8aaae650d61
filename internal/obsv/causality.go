package obsv

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Causality is a streaming checker of the span-log contract, and the
// contract's one definition: the bench reconcilers, obsvlint -causality
// and firetrace -strict all check through it. Feed the stream in order
// to Observe; Findings reports every violation so far. The zero value is
// ready to use.
//
// Trace chains (trace ≠ 0; checked at end of stream, reported in
// ascending trace order):
//   - a started trace has exactly one req-start;
//   - a trace with a req-start or a terminal has exactly one terminal
//     (req-done or req-lost);
//   - a req-done needs a req-start (a lone req-lost is legal: the request
//     was delivered but the server died before reading it);
//   - every other span's trace was started (no orphaned reference).
//
// Heap-domain ordering (checked in stream order and named by the span's
// seq; transaction boundaries are keyed by (replica, thread), switches
// by (replica, dom), so a merged fleet log keeps replicas apart):
//   - a domain-discard is legal only while the last begin/commit/abort/
//     crash on its thread is a crash;
//   - a discard of dom≠0 needs a prior domain-switch to that dom (dom=0
//     is a crash before the request's first allocation: an empty arena);
//   - a domain-violation's next span on its thread is the crash, shed or
//     unrecovered it becomes; one still pending at end of stream is a
//     finding.
type Causality struct {
	traces   map[int64]traceChain
	boundary map[threadKey]string // last begin/commit/abort/crash kind
	pending  map[threadKey]int64  // seq of a violation awaiting its crash
	switched map[domKey]bool
	findings []string // order-sensitive findings, stream order
}

type threadKey struct{ replica, thread int }

type domKey struct {
	replica int
	dom     int64
}

// traceChain counts one trace's lifecycle spans.
type traceChain struct {
	starts, dones, losts int32
	ref                  bool // referenced by a non-lifecycle span
}

// CheckCausality runs the contract over a whole span slice.
func CheckCausality(spans []SpanEvent) []string {
	var c Causality
	for _, e := range spans {
		c.Observe(e)
	}
	return c.Findings()
}

// Observe folds one span into the checker.
func (c *Causality) Observe(e SpanEvent) {
	if c.traces == nil {
		c.traces = map[int64]traceChain{}
		c.boundary = map[threadKey]string{}
		c.pending = map[threadKey]int64{}
		c.switched = map[domKey]bool{}
	}
	tk := threadKey{e.Replica, e.Thread}
	if from, ok := c.pending[tk]; ok {
		delete(c.pending, tk)
		if e.Kind != SpanCrash && e.Kind != SpanShed && e.Kind != SpanUnrecovered {
			c.findf("seq %d: domain-violation (seq %d) followed by %q, want crash/shed/unrecovered", e.Seq, from, e.Kind)
		}
	}
	switch e.Kind {
	case SpanBegin, SpanCommit, SpanAbort, SpanCrash:
		c.boundary[tk] = e.Kind
	case SpanDomainSwitch:
		if dom, ok := detailDom(e.Detail); ok {
			c.switched[domKey{e.Replica, dom}] = true
		}
	case SpanDomainDiscard:
		if b := c.boundary[tk]; b != SpanCrash {
			if b == "" {
				b = "no transaction boundary"
			}
			c.findf("seq %d: domain-discard after %q, want crash", e.Seq, b)
		}
		if dom, ok := detailDom(e.Detail); ok && dom != 0 && !c.switched[domKey{e.Replica, dom}] {
			c.findf("seq %d: domain-discard of dom %d with no prior domain-switch", e.Seq, dom)
		}
	case SpanDomainViolation:
		c.pending[tk] = e.Seq
	}
	if e.Trace == 0 {
		return
	}
	t := c.traces[e.Trace]
	switch e.Kind {
	case SpanReqStart:
		t.starts++
	case SpanReqDone:
		t.dones++
	case SpanReqLost:
		t.losts++
	default:
		t.ref = true
	}
	c.traces[e.Trace] = t
}

func (c *Causality) findf(format string, args ...any) {
	c.findings = append(c.findings, fmt.Sprintf(format, args...))
}

// Findings returns every violation of the stream observed so far: the
// order-sensitive findings in stream order, then violations still
// pending, then the trace-chain findings in ascending trace order.
func (c *Causality) Findings() []string {
	out := append([]string(nil), c.findings...)
	var dangling []int64
	for _, seq := range c.pending {
		dangling = append(dangling, seq)
	}
	sort.Slice(dangling, func(i, j int) bool { return dangling[i] < dangling[j] })
	for _, seq := range dangling {
		out = append(out, fmt.Sprintf("seq %d: domain-violation with no following span", seq))
	}
	type traceFindings struct {
		trace int64
		msgs  []string
	}
	var bad []traceFindings
	for tr, t := range c.traces {
		if msgs := t.findings(tr); msgs != nil {
			bad = append(bad, traceFindings{tr, msgs})
		}
	}
	sort.Slice(bad, func(i, j int) bool { return bad[i].trace < bad[j].trace })
	for _, b := range bad {
		out = append(out, b.msgs...)
	}
	return out
}

// findings applies the trace-chain rules to one trace (nil: clean).
func (t traceChain) findings(tr int64) []string {
	var out []string
	terminals := t.dones + t.losts
	if t.starts > 1 {
		out = append(out, fmt.Sprintf("trace %d: %d req-start spans, want 1", tr, t.starts))
	}
	if t.starts+terminals > 0 && terminals != 1 {
		out = append(out, fmt.Sprintf("trace %d: %d terminal spans, want 1", tr, terminals))
	}
	if t.starts == 0 && t.dones > 0 {
		out = append(out, fmt.Sprintf("trace %d: req-done without req-start", tr))
	}
	if t.starts == 0 && t.ref {
		out = append(out, fmt.Sprintf("trace %d: orphaned trace reference (no req-start)", tr))
	}
	return out
}

// detailDom extracts the dom=N token of a domain span's Detail.
func detailDom(detail string) (int64, bool) {
	for _, f := range strings.Fields(detail) {
		if v, ok := strings.CutPrefix(f, "dom="); ok {
			dom, err := strconv.ParseInt(v, 10, 64)
			return dom, err == nil
		}
	}
	return 0, false
}
