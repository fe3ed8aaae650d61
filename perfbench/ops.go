package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/bench"
	"github.com/firestarter-go/firestarter/internal/core"
	"github.com/firestarter-go/firestarter/internal/htm"
	"github.com/firestarter-go/firestarter/internal/interp"
	"github.com/firestarter-go/firestarter/internal/libsim"
	"github.com/firestarter-go/firestarter/internal/mem"
	"github.com/firestarter-go/firestarter/internal/obsv"
	"github.com/firestarter-go/firestarter/internal/transform"
	"github.com/firestarter-go/firestarter/internal/workload"
)

// workloadDef is one named benchmark workload.
//
// Its program inputs come from a pinned pool of input seeds, each with
// pinned outputs (pins.json), so every operation's output is checked
// exactly. A run visits the whole pool in an order drawn from --seed and
// repeats it until its time is used up; the held-out input seed, used to
// check that a claim was not tuned to the pool, is the one after the pool.
type workloadDef struct {
	name string
	// apps are compiled, hardened and booted once, to their quiesce
	// point, during set-up.
	apps func() []*apps.App
	pool int64 // input seeds 1..pool
	// setups is the set-ups per campaign: the campaign's own, then
	// set-up-only operations, so that every run has enough set-ups for
	// a steady setup_s.
	setups int
	// callsIn names the phase whose layer calls the timed-call metrics
	// sum: "op" when the operation composes the layers itself, "setup"
	// when it runs a campaign closed to outside timing.
	callsIn string
	run     func(seed int64, rec *recorder) (opOut, error)
}

// opOut is what one operation produced.
type opOut struct {
	// work is the guest work done: instructions retired where the
	// program exposes them (fig7-serve), otherwise modelled cycles on the
	// campaign clock (see README.md).
	work   float64
	counts map[string]float64
	// render and check are digested and compared with the pins: render
	// is the table as firebench prints it, check the exact numbers
	// behind it (per-run cycles-per-request and abort rates, or the span
	// fingerprint).
	render string
	check  uint64
	keep   any // the result, held across the live-heap measurement
}

var workloads = []workloadDef{
	{
		name:    "fig7-serve",
		apps:    apps.All,
		pool:    8,
		setups:  1,
		callsIn: "op",
		run:     runFig7,
	},
	{
		name:    "chaos-recover",
		apps:    apps.All,
		pool:    1,
		setups:  10,
		callsIn: "setup",
		run:     runChaos,
	},
	{
		name:    "openloop-fleet",
		apps:    func() []*apps.App { return []*apps.App{apps.ByName("nginx")} },
		pool:    3,
		setups:  3,
		callsIn: "setup",
		run:     runOpenLoop,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// inputSeeds returns the workload's input pool, or its held-out seed.
func (w workloadDef) inputSeeds(heldout bool) []int64 {
	if heldout {
		return []int64{w.pool + 1}
	}
	seeds := make([]int64, w.pool)
	for i := range seeds {
		seeds[i] = int64(i) + 1
	}
	return seeds
}

// setup compiles, hardens and boots each of the workload's apps once to
// its quiesce point, as every campaign's boots will.
func setup(w workloadDef, rec *recorder) error {
	for _, app := range w.apps() {
		if app == nil {
			return fmt.Errorf("setup: app not registered")
		}
		m, rt, _, err := bootApp(app, false, core.Config{}, rec)
		if err != nil {
			return fmt.Errorf("setup %s: %w", app.Name, err)
		}
		if app.QuiesceFunc == "" {
			continue
		}
		if out := m.Run(5_000_000); out.Kind != interp.OutBlocked {
			return fmt.Errorf("setup %s: did not reach its quiesce point (%v)", app.Name, out.Kind)
		}
		if fn := m.CurrentFunc(); fn != app.QuiesceFunc {
			return fmt.Errorf("setup %s: blocked in %q, quiesce point is %q", app.Name, fn, app.QuiesceFunc)
		}
		rt.ArmQuiesce(m)
	}
	return nil
}

// bootApp compiles and loads an app, hardened unless vanilla, timing each
// layer call: minic.compile, transform.apply and core.boot (core.New,
// interp.New and Attach; interp.New alone for vanilla boots).
func bootApp(app *apps.App, vanilla bool, cfg core.Config, rec *recorder) (*interp.Machine, *core.Runtime, *libsim.OS, error) {
	sp := rec.start("minic.compile")
	prog, err := app.Compile()
	rec.end(sp)
	if err != nil {
		return nil, nil, nil, err
	}
	osim := libsim.New(mem.NewSpace())
	if app.Setup != nil {
		app.Setup(osim)
	}
	if vanilla {
		sp := rec.start("core.boot")
		m, err := interp.New(prog.Clone(), osim, nil)
		rec.end(sp)
		return m, nil, osim, err
	}
	sp = rec.start("transform.apply")
	tr, err := transform.Apply(prog, nil)
	rec.end(sp)
	if err != nil {
		return nil, nil, nil, err
	}
	sp = rec.start("core.boot")
	rt := core.New(tr, osim, cfg)
	m, err := interp.New(tr.Prog, osim, rt)
	if err == nil {
		rt.Attach(m)
	}
	rec.end(sp)
	return m, rt, osim, err
}

// Figure 7's measurement settings, as bench.Runner.Figure7 applies them
// at its defaults: 300 requests from 4 closed-loop clients per run, and
// HTM interrupts every 250k instructions on average.
const (
	fig7Requests     = 300
	fig7Clients      = 4
	fig7InterruptGap = 250_000
)

// fig7Modes are the four measurement runs per app, vanilla first.
var fig7Modes = []struct {
	name    string
	vanilla bool
	mode    core.Mode
}{
	{"vanilla", true, 0},
	{"htm-only", false, core.ModeHTMOnly},
	{"stm-only", false, core.ModeSTMOnly},
	{"hybrid", false, core.ModeHybrid},
}

// fig7Run is one measurement run of the composed Figure 7 campaign.
type fig7Run struct {
	cpr       float64 // cycles per request
	abortRate float64 // HTM aborts / begins; 0 for vanilla
}

// composeFig7 regenerates Figure 7 by calling the layers' public functions
// directly: for each app and scheme it compiles, hardens, boots and drives
// one run. Runs are listed app-major, in fig7Modes order.
func composeFig7(seed int64, rec *recorder) (bench.Figure7Result, []fig7Run, map[string]float64, float64, error) {
	var res bench.Figure7Result
	var runs []fig7Run
	counts := map[string]float64{}
	var steps float64
	for _, app := range apps.All() {
		base := len(runs)
		for _, md := range fig7Modes {
			cfg := core.Config{
				Mode: md.mode, Threshold: 0.01, SampleSize: 4,
				HTM: htm.Config{MeanInstrsPerInterrupt: fig7InterruptGap, Seed: seed},
			}
			m, rt, osim, err := bootApp(app, md.vanilla, cfg, rec)
			if err != nil {
				return res, nil, nil, 0, fmt.Errorf("fig7 %s/%s: %w", app.Name, md.name, err)
			}
			d := &workload.Driver{
				OS: osim, M: m, Port: app.Port,
				Gen:         workload.ForProtocol(app.Protocol),
				Concurrency: fig7Clients,
				Seed:        seed,
			}
			sp := rec.start("workload.drive")
			out := d.Run(fig7Requests)
			rec.end(sp)

			run := fig7Run{cpr: out.CyclesPerRequest()}
			steps += float64(m.Steps)
			counts["interp.steps"] += float64(m.Steps)
			counts["interp.cycles"] += float64(m.Cycles)
			counts["mem.peak_pages"] += float64(osim.Space.PeakPages())
			counts["workload.completed"] += float64(out.Completed)
			if rt != nil {
				st, hs, ss := rt.Stats(), rt.HTMStats(), rt.STMStats()
				run.abortRate = st.HTMAbortRate()
				counts["core.gate_execs"] += float64(st.GateExecs)
				counts["htm.begins"] += float64(hs.Begins)
				counts["htm.commits"] += float64(hs.Commits)
				counts["htm.aborts"] += float64(hs.Aborts)
				counts["htm.aborts_capacity"] += float64(hs.ByCapac)
				counts["stm.begins"] += float64(ss.Begins)
				counts["stm.stores_logged"] += float64(ss.TotalStores)
				counts["stm.peak_log_len"] = math.Max(counts["stm.peak_log_len"], float64(ss.PeakLogLen))
			}
			runs = append(runs, run)
		}
		vanilla := runs[base].cpr
		res.Rows = append(res.Rows, bench.Figure7Row{
			Server:              app.Name,
			HTMOnlyPct:          overheadPct(runs[base+1].cpr, vanilla),
			STMOnlyPct:          overheadPct(runs[base+2].cpr, vanilla),
			FIRestarterPct:      overheadPct(runs[base+3].cpr, vanilla),
			HTMOnlyAbortPct:     100 * runs[base+1].abortRate,
			FIRestarterAbortPct: 100 * runs[base+3].abortRate,
		})
	}
	return res, runs, counts, steps, nil
}

// overheadPct is Figure 7's normalized overhead: percent over vanilla,
// 0 when either run has no finite cycles-per-request.
func overheadPct(variant, baseline float64) float64 {
	if baseline == 0 || math.IsInf(variant, 0) || math.IsInf(baseline, 0) {
		return 0
	}
	return (variant/baseline - 1) * 100
}

func runFig7(seed int64, rec *recorder) (opOut, error) {
	res, runs, counts, steps, err := composeFig7(seed, rec)
	if err != nil {
		return opOut{}, err
	}
	h := fnv.New64a()
	for _, r := range runs {
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(r.cpr)))
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(r.abortRate)))
	}
	return opOut{
		work:   steps,
		counts: counts,
		render: res.Render() + res.RenderFigure8(),
		check:  h.Sum64(),
		keep:   res,
	}, nil
}

func runChaos(seed int64, rec *recorder) (opOut, error) {
	sp := rec.start("bench.Chaos")
	res, err := bench.Runner{Requests: 30, FaultsPerServer: 2, Seed: seed, Parallelism: 1}.Chaos()
	rec.end(sp)
	if err != nil {
		return opOut{}, err
	}
	counts := map[string]float64{
		"bench.campaigns": float64(res.Campaigns),
		"obsv.spans":      float64(len(res.Spans)),
	}
	for _, row := range res.Rows {
		counts["core.recovered"] += float64(row.Recovered)
		counts["core.injected"] += float64(row.Injected)
		counts["core.sheds"] += float64(row.Shed)
		counts["supervisor.reboots"] += float64(row.Rebooted)
		counts["supervisor.breaker_open"] += float64(row.Breaker)
		counts["workload.lost"] += float64(row.Lost)
	}
	if res.Traces > 0 {
		counts["obsv.spans_per_trace"] = float64(len(res.Spans)) / float64(res.Traces)
	}
	return opOut{
		work:   float64(spanClock(res.Spans)),
		counts: counts,
		render: res.Render(),
		check:  res.Fingerprint(),
		keep:   res,
	}, nil
}

func runOpenLoop(seed int64, rec *recorder) (opOut, error) {
	sp := rec.start("bench.OpenLoop")
	res, err := bench.Runner{Seed: seed, Parallelism: 1}.OpenLoop()
	rec.end(sp)
	if err != nil {
		return opOut{}, err
	}
	counts := map[string]float64{"obsv.spans": float64(len(res.Spans))}
	for _, row := range res.Rows {
		counts["workload.offered"] += float64(row.Offered)
		counts["workload.done"] += float64(row.Done)
		counts["workload.shed"] += float64(row.Shed)
		counts["workload.lost"] += float64(row.Lost)
		counts["workload.peak_queue"] = math.Max(counts["workload.peak_queue"], float64(row.PeakQueue))
		counts["fleet.boots"] += float64(row.Boots)
		counts["fleet.deaths"] += float64(row.Deaths)
	}
	return opOut{
		work:   float64(spanClock(res.Spans)),
		counts: counts,
		render: res.Render(),
		check:  res.Fingerprint(),
		keep:   res,
	}, nil
}

// spanClock is the experiment-global clock at the last span: the modelled
// cycles the campaign ran, across incarnations and rungs.
func spanClock(spans []obsv.SpanEvent) int64 {
	var c int64
	for _, e := range spans {
		c = max(c, e.Cycles)
	}
	return c
}

// digest is an operation's output in the form pins.json records it.
func digest(o opOut) string {
	h := fnv.New64a()
	h.Write([]byte(o.render))
	return fmt.Sprintf("render=%016x check=%016x", h.Sum64(), o.check)
}

// recorder keeps the benchmark's own spans around each layer call in
// memory; the parent writes them out when the run ends.
type recorder struct {
	phase  string
	origin time.Time
	spans  []span
}

// span is one timed call. Start and end are nanoseconds since the child
// process's clock origin (its parent's spawn time).
type span struct {
	Op      int    `json:"op"`
	Phase   string `json:"phase"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (r *recorder) start(name string) int {
	r.spans = append(r.spans, span{Phase: r.phase, Name: name, StartNS: time.Since(r.origin).Nanoseconds()})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) { r.spans[i].EndNS = time.Since(r.origin).Nanoseconds() }

// calls sums the phase's span durations per layer call, in seconds, and
// counts the compiles.
func (r *recorder) calls(phase string) map[string]float64 {
	out := map[string]float64{
		"minic.compile_s": 0, "transform.apply_s": 0, "core.boot_s": 0,
		"workload.drive_s": 0, "minic.compiles": 0,
	}
	for _, s := range r.spans {
		if s.Phase != phase {
			continue
		}
		key := s.Name + "_s"
		if _, ok := out[key]; ok {
			out[key] += float64(s.EndNS-s.StartNS) / 1e9
		}
		if s.Name == "minic.compile" {
			out["minic.compiles"]++
		}
	}
	return out
}
