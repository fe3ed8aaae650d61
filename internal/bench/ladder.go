package bench

import (
	"fmt"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/faultinj"
	"github.com/firestarter-go/firestarter/internal/obsv"
	"github.com/firestarter-go/firestarter/internal/replay"
	"github.com/firestarter-go/firestarter/internal/supervisor"
	"github.com/firestarter-go/firestarter/internal/workload"
)

// ladderRun is one supervised campaign: the Runner's workload driven to
// completion across as many incarnations as the supervisor allows, with
// every rung of the recovery escalation ladder armed on hardened boots
// (rollback -> STM retry -> gate injection -> request shedding ->
// supervised microreboot -> crash-loop breaker).
type ladderRun struct {
	Completed int
	Failed    int
	Cycles    int64 // workload cycles across incarnations (throughput accounting)

	// Runtime recovery counters summed across incarnations (zero for
	// vanilla campaigns, which have no runtime).
	Crashes       int64
	Retries       int64
	Injections    int64
	Unrecovered   int64
	Sheds         int64
	ShedConnsLost int64

	// Request-trace accounting summed across incarnations (hardened
	// campaigns only): starts and terminal outcomes as the runtime saw
	// them, plus the total trace IDs the drivers consumed — the campaign's
	// ID space is [1, Traces], which Chaos rebases per campaign.
	ReqStarts int64
	ReqsDone  int64
	ReqsLost  int64
	Traces    int64

	// Heap-domain accounting (all zero unless the campaign enabled the
	// rewind-and-discard strategy): runtime domain counters, libsim arena
	// counters, and the corruption-reach audit over every connection
	// write — Taints writes checked, Leaks the (must-be-empty) verdicts.
	DomainBegins     int64
	DomainCommits    int64
	DomainSwitches   int64
	DomainRetires    int64
	DomainDiscards   int64
	DomainViolations int64
	DomainLatches    int64
	ArenaAllocs      int64
	ArenaFallbacks   int64
	ArenaRetires     int64
	Taints           int64
	Leaks            []faultinj.Leak

	Sup supervisor.Stats

	// Spans holds every incarnation's runtime span events rebased onto the
	// supervisor's campaign clock and merged with the supervisor's own
	// reboot/breaker-open events, in non-decreasing cycle order.
	Spans   []obsv.SpanEvent
	Dropped int64

	// Registry accumulates each incarnation's published runtime metrics
	// plus the supervisor's; reconcile() checks it against the counters
	// above.
	Registry *obsv.Registry

	// Recordings holds the flight-recorder captures (Runner.RecordDir
	// set): one per incarnation that ended unrecovered, plus the final
	// incarnation when the breaker opened. The campaign reducers write
	// them out in job order.
	Recordings []replay.Recording
}

// ladderRun drives r.Requests against app under supervision. Hardened
// boots (o.vanilla false) get spans enabled and their quiesce point armed
// so the shedding rung is live; vanilla boots exercise the bare
// restart-on-crash policy. Residual work abandoned when the breaker opens
// is counted as Failed — never silently dropped.
func (r Runner) ladderRun(app *apps.App, o bootOpts, sc supervisor.Config) (*ladderRun, error) {
	lr := &ladderRun{Registry: obsv.NewRegistry()}
	if sc.Seed == 0 {
		sc.Seed = r.Seed
	}
	sup := supervisor.New(sc)
	remaining := r.Requests

	// Flight-recorder candidates: with RecordDir set, every incarnation
	// is captured (spans in machine-local cycles, pre-rebase) and the
	// failing ones are kept once the campaign's verdicts are known.
	type incCand struct {
		rec   replay.Recording
		unrec bool
	}
	var recCands []incCand
	// Each incarnation's rebased spans, in incarnation (and so cycle)
	// order; merged with the supervisor's once the campaign ends.
	var incSpans [][]obsv.SpanEvent

	err := sup.Supervise(func(inc int, seed int64) (supervisor.RunResult, error) {
		if remaining <= 0 {
			// The previous incarnation's death consumed the last of the
			// budget; its restart is already accounted, nothing to run.
			return supervisor.RunResult{Done: true}, nil
		}
		offset := sup.Clock()
		inst, err := boot(app, o)
		if err != nil {
			return supervisor.RunResult{}, err
		}
		if inst.rt != nil {
			inst.rt.EnableSpans()
			if err := armQuiesce(inst); err != nil {
				return supervisor.RunResult{}, err
			}
		}
		d := &workload.Driver{
			OS: inst.os, M: inst.m, Port: app.Port,
			Gen:         workload.ForProtocol(app.Protocol),
			Concurrency: r.Concurrency,
			Seed:        seed,
		}
		if inst.rt != nil {
			// Trace every request; IDs continue where the previous
			// incarnation stopped so the campaign's causal chains never
			// collide. (Guarded: a typed-nil *core.Runtime in the
			// interface would defeat the driver's nil check.)
			d.Sink = inst.rt
			d.TraceBase = lr.Traces
		}
		reqBefore := remaining
		res := d.Run(remaining)
		lr.Completed += res.Completed
		lr.Failed += res.BadResp
		lr.Cycles += res.Cycles
		lr.Traces += int64(res.Sent)
		remaining -= res.Completed + res.BadResp

		rr := supervisor.RunResult{Cycles: inst.m.Cycles}
		if inst.rt != nil {
			st := inst.rt.Stats()
			lr.Crashes += st.Crashes
			lr.Retries += st.Retries
			lr.Injections += st.Injections
			lr.Unrecovered += st.Unrecovered
			lr.Sheds += st.Sheds
			lr.ShedConnsLost += st.ShedConnsLost
			lr.ReqStarts += st.ReqStarts
			lr.ReqsDone += st.ReqsDone
			lr.ReqsLost += st.ReqsLost
			lr.DomainBegins += st.DomainBegins
			lr.DomainCommits += st.DomainCommits
			lr.DomainSwitches += st.DomainSwitches
			lr.DomainRetires += st.DomainRetires
			lr.DomainDiscards += st.DomainDiscards
			lr.DomainViolations += st.DomainViolations
			lr.DomainLatches += st.DomainLatches
			if inst.os.ArenasEnabled() {
				ast := inst.os.ArenaStats()
				lr.ArenaAllocs += ast.Allocs
				lr.ArenaFallbacks += ast.Fallbacks
				lr.ArenaRetires += ast.Retires
				taints := inst.os.WriteTaints()
				lr.Taints += int64(len(taints))
				lr.Leaks = append(lr.Leaks, faultinj.CheckReach(taints)...)
			}
			// Spans returns a fresh copy: rebase it in place and keep it.
			spans := inst.rt.Spans()
			for i := range spans {
				spans[i].Cycles += offset
				spans[i].Seq = 0
			}
			incSpans = append(incSpans, spans)
			lr.Dropped += inst.rt.TraceDropped()
			inst.rt.PublishMetrics(lr.Registry)
			if r.RecordDir != "" {
				recCands = append(recCands, incCand{
					rec: replay.RecordIncarnation(replay.IncarnationRun{
						App:         app.Name,
						Core:        o.cfg,
						Fault:       o.fault,
						Incarnation: inc,
						Seed:        seed,
						Proto:       app.Protocol,
						Requests:    reqBefore,
						Concurrency: r.Concurrency,
						TraceBase:   d.TraceBase,
						FinalCycles: inst.m.Cycles,
						FinalSteps:  inst.m.Steps,
						Spans:       inst.rt.Spans(),
					}),
					unrec: st.Unrecovered > 0,
				})
			}
		}
		if res.ServerDied || res.Stalled {
			rr.Died = res.ServerDied
			lost := res.Outstanding
			if lost > remaining {
				lost = remaining
			}
			lr.Failed += lost
			remaining -= lost
			rr.ConnsLost = lost
			// A death is a death even when the in-flight loss drained the
			// budget: the restart is counted and the next incarnation
			// reports done without booting.
			return rr, nil
		}
		rr.Done = remaining <= 0
		return rr, nil
	})
	if err != nil {
		return nil, err
	}
	lr.Sup = sup.Stats()
	// Residual work the breaker abandoned is failed, not forgotten (the
	// old inline restart loop under-reported exactly this).
	if remaining > 0 {
		lr.Failed += remaining
	}
	sup.PublishMetrics(lr.Registry)
	lr.Spans = mergeSpans(incSpans, sup.Spans())
	// Keep the failing incarnations' recordings: every unrecovered one,
	// plus the final incarnation when the crash-loop breaker gave up.
	for i := range recCands {
		c := &recCands[i]
		switch {
		case c.unrec:
			c.rec.Manifest.Outcome = replay.OutcomeUnrecovered
		case lr.Sup.BreakerOpen && i == len(recCands)-1:
			c.rec.Manifest.Outcome = replay.OutcomeBreakerOpen
		default:
			continue
		}
		lr.Recordings = append(lr.Recordings, c.rec)
	}
	return lr, nil
}

// mergeSpans merges the runtime spans — the concatenation of incs, which
// is cycle-ordered — with the cycle-ordered supervisor spans b, preferring
// runtime events on ties (they precede the supervisor's verdict about
// them). It copies once, into an exactly sized slice, and not at all for
// a single incarnation with no supervisor spans.
func mergeSpans(incs [][]obsv.SpanEvent, b []obsv.SpanEvent) []obsv.SpanEvent {
	if len(incs) == 1 && len(b) == 0 {
		return incs[0]
	}
	n := len(b)
	for _, a := range incs {
		n += len(a)
	}
	out := make([]obsv.SpanEvent, 0, n)
	j := 0
	for _, a := range incs {
		for i := range a {
			for j < len(b) && b[j].Cycles < a[i].Cycles {
				out = append(out, b[j])
				j++
			}
			out = append(out, a[i])
		}
	}
	return append(out, b[j:]...)
}

// rung names the coarsest ladder rung the campaign escalated to — the
// rung that absorbed (or failed to absorb) its fault.
func (l *ladderRun) rung() string {
	switch {
	case l.Sup.BreakerOpen:
		return "breaker-open"
	case l.Sup.Restarts > 0:
		return "rebooted"
	case l.Sheds > 0:
		return "shed"
	case l.Injections > 0:
		return "injected"
	case l.Crashes > 0:
		return "recovered"
	default:
		return "none"
	}
}

// reconcile cross-checks the campaign's three accounting surfaces —
// aggregated runtime/supervisor stats, the published metrics registry,
// and the span log — and returns every discrepancy. An empty slice means
// the ladder accounted for every fault on every surface.
func (l *ladderRun) reconcile() []string {
	var errs []string
	check := func(name string, got, want int64) {
		if got != want {
			errs = append(errs, fmt.Sprintf("%s: metric %d != stat %d", name, got, want))
		}
	}
	check("core.crashes", l.Registry.Total("core.crashes"), l.Crashes)
	check("core.retries", l.Registry.Total("core.retries"), l.Retries)
	check("core.injections", l.Registry.Total("core.injections"), l.Injections)
	check("core.unrecovered", l.Registry.Total("core.unrecovered"), l.Unrecovered)
	check("core.sheds", l.Registry.Total("core.sheds"), l.Sheds)
	check("core.shed_conns_lost", l.Registry.Total("core.shed_conns_lost"), l.ShedConnsLost)
	check("supervisor.incarnations", l.Registry.Total("supervisor.incarnations"), int64(l.Sup.Incarnations))
	check("supervisor.restarts", l.Registry.Total("supervisor.restarts"), int64(l.Sup.Restarts))
	check("supervisor.state_lost", l.Registry.Total("supervisor.state_lost"), int64(l.Sup.StateLost))
	check("supervisor.conns_lost", l.Registry.Total("supervisor.conns_lost"), int64(l.Sup.ConnsLost))
	check("supervisor.backoff_cycles_total", l.Registry.Total("supervisor.backoff_cycles_total"), l.Sup.BackoffCycles)
	var breaker int64
	if l.Sup.BreakerOpen {
		breaker = 1
	}
	check("supervisor.breaker_open", l.Registry.Total("supervisor.breaker_open"), breaker)

	// Health-surface gauges (current backoff delay, breaker window
	// occupancy) reconcile against the Stats snapshot like every counter.
	check("supervisor.backoff_cycles", l.Registry.Total("supervisor.backoff_cycles"), l.Sup.LastBackoff)
	check("supervisor.breaker_window", l.Registry.Total("supervisor.breaker_window"), int64(l.Sup.Window))

	// Zero silent deaths: every incarnation that died is attributed to a
	// reboot or to the breaker opening.
	if got, want := int64(l.Sup.StateLost), int64(l.Sup.Restarts)+breaker; got != want {
		errs = append(errs, fmt.Sprintf("silent deaths: state_lost %d != restarts %d + breaker %d", got, int64(l.Sup.Restarts), breaker))
	}

	check("core.req_starts", l.Registry.Total("core.req_starts"), l.ReqStarts)
	check("core.req_done", l.Registry.Total("core.req_done"), l.ReqsDone)
	check("core.req_lost", l.Registry.Total("core.req_lost"), l.ReqsLost)

	// Heap-domain surfaces. Domains-off campaigns publish none of these
	// metrics and accumulate zero stats, so every check degrades to 0 == 0.
	check("core.domain_begins", l.Registry.Total("core.domain_begins"), l.DomainBegins)
	check("core.domain_commits", l.Registry.Total("core.domain_commits"), l.DomainCommits)
	check("core.domain_switches", l.Registry.Total("core.domain_switches"), l.DomainSwitches)
	check("core.domain_retires", l.Registry.Total("core.domain_retires"), l.DomainRetires)
	check("core.domain_discards", l.Registry.Total("core.domain_discards"), l.DomainDiscards)
	check("core.domain_violations", l.Registry.Total("core.domain_violations"), l.DomainViolations)
	check("core.domain_latches", l.Registry.Total("core.domain_latches"), l.DomainLatches)
	check("core.arena_allocs", l.Registry.Total("core.arena_allocs"), l.ArenaAllocs)
	check("core.arena_fallbacks", l.Registry.Total("core.arena_fallbacks"), l.ArenaFallbacks)
	check("core.arena_retires", l.Registry.Total("core.arena_retires"), l.ArenaRetires)

	// Span log cross-check (skipped if the bounded log overflowed).
	if l.Dropped == 0 {
		counts := map[string]int64{}
		for _, e := range l.Spans {
			counts[e.Kind]++
		}
		check("span:"+obsv.SpanShed, counts[obsv.SpanShed], l.Sheds)
		check("span:"+obsv.SpanReboot, counts[obsv.SpanReboot], int64(l.Sup.Restarts))
		check("span:"+obsv.SpanBreakerOpen, counts[obsv.SpanBreakerOpen], breaker)
		check("span:"+obsv.SpanUnrecovered, counts[obsv.SpanUnrecovered], l.Unrecovered)
		check("span:"+obsv.SpanReqStart, counts[obsv.SpanReqStart], l.ReqStarts)
		check("span:"+obsv.SpanReqDone, counts[obsv.SpanReqDone], l.ReqsDone)
		check("span:"+obsv.SpanReqLost, counts[obsv.SpanReqLost], l.ReqsLost)
		check("span:"+obsv.SpanDomainSwitch, counts[obsv.SpanDomainSwitch], l.DomainSwitches)
		check("span:"+obsv.SpanDomainDiscard, counts[obsv.SpanDomainDiscard], l.DomainDiscards)
		check("span:"+obsv.SpanDomainViolation, counts[obsv.SpanDomainViolation], l.DomainViolations)
		check("span:"+obsv.SpanLatchDomains, counts[obsv.SpanLatchDomains], l.DomainLatches)
		errs = append(errs, obsv.CheckCausality(l.Spans)...)
	}
	return errs
}
