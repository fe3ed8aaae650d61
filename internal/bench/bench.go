// Package bench regenerates every table and figure of the paper's
// evaluation (§VI). Each experiment returns a typed result with a Render
// method that prints the same rows/series the paper reports; the
// EXPERIMENTS.md file records paper-vs-measured for each.
//
// All experiments are deterministic: workloads, fault plans and the HTM
// interrupt process are seeded, and the performance metric is the
// interpreter's cost-model cycle count rather than wall-clock time.
package bench

import (
	"fmt"
	"math"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/core"
	"github.com/firestarter-go/firestarter/internal/faultinj"
	"github.com/firestarter-go/firestarter/internal/interp"
	"github.com/firestarter-go/firestarter/internal/ir"
	"github.com/firestarter-go/firestarter/internal/libmodel"
	"github.com/firestarter-go/firestarter/internal/libsim"
	"github.com/firestarter-go/firestarter/internal/mem"
	"github.com/firestarter-go/firestarter/internal/transform"
	"github.com/firestarter-go/firestarter/internal/workload"
)

// Runner parameterizes all experiments.
type Runner struct {
	// Requests per measurement run (default 300).
	Requests int
	// Concurrency is the number of simulated clients (default 4).
	Concurrency int
	// Seed drives workload mixes, fault planning and the interrupt
	// process.
	Seed int64
	// FaultsPerServer bounds the Table IV fault campaigns (default 12).
	FaultsPerServer int

	// Parallelism bounds the worker pool the experiment campaigns fan
	// their isolated measurement runs across. Values <= 1 run serially.
	// Results are identical either way: every run is hermetically seeded
	// and results are assembled in job order (see parallel.go).
	Parallelism int

	// RecordDir, when set, arms the flight recorder: supervised
	// campaigns capture a replay manifest (plus companion span stream)
	// for every incarnation that ends unrecovered or with the breaker
	// open, and the open-loop sweep records every failing rung. Files
	// land in this directory, named in reduction (job) order so the set
	// is identical at any Parallelism. Empty (the default) records
	// nothing and changes no output.
	RecordDir string
}

func (r Runner) withDefaults() Runner {
	if r.Requests == 0 {
		r.Requests = 300
	}
	if r.Concurrency == 0 {
		r.Concurrency = 4
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.FaultsPerServer == 0 {
		r.FaultsPerServer = 12
	}
	return r
}

// instance is one booted server (vanilla or hardened).
type instance struct {
	app *apps.App
	os  *libsim.OS
	m   *interp.Machine
	rt  *core.Runtime // nil for vanilla
	tr  *transform.Result
}

// bootOpts configures boot.
type bootOpts struct {
	vanilla  bool
	cfg      core.Config
	fault    *faultinj.Fault
	prelatch []int
	model    *libmodel.Model // nil = libmodel.Default()
}

// boot compiles (optionally fault-plants, optionally hardens) and loads an
// app.
func boot(app *apps.App, o bootOpts) (*instance, error) {
	prog, err := app.Compile()
	if err != nil {
		return nil, err
	}
	if o.fault != nil {
		prog, err = faultinj.Apply(prog, *o.fault)
		if err != nil {
			return nil, err
		}
	}
	osim := libsim.New(mem.NewSpace())
	if app.Setup != nil {
		app.Setup(osim)
	}
	inst := &instance{app: app, os: osim}
	if o.vanilla {
		m, err := interp.New(prog.Clone(), osim, nil)
		if err != nil {
			return nil, err
		}
		inst.m = m
		return inst, nil
	}
	tr, err := transform.Apply(prog, o.model)
	if err != nil {
		return nil, err
	}
	rt := core.New(tr, osim, o.cfg)
	m, err := interp.New(tr.Prog, osim, rt)
	if err != nil {
		return nil, err
	}
	rt.Attach(m)
	for _, site := range o.prelatch {
		rt.LatchSTM(site)
	}
	inst.m, inst.rt, inst.tr = m, rt, tr
	return inst, nil
}

// armQuiesce runs a freshly booted hardened server until it blocks for
// the first time — which must happen inside the app's declared quiesce
// function (its accept/event loop) — and registers the snapshot with the
// runtime, enabling the request-shedding rung. No-op for vanilla
// instances and apps that declare no quiesce point.
func armQuiesce(inst *instance) error {
	if inst.rt == nil || inst.app.QuiesceFunc == "" {
		return nil
	}
	out := inst.m.Run(5_000_000)
	if out.Kind != interp.OutBlocked {
		return fmt.Errorf("bench: %s did not reach its quiesce point (outcome %v)",
			inst.app.Name, out.Kind)
	}
	if fn := inst.m.CurrentFunc(); fn != inst.app.QuiesceFunc {
		return fmt.Errorf("bench: %s blocked in %q, quiesce point is %q",
			inst.app.Name, fn, inst.app.QuiesceFunc)
	}
	inst.rt.ArmQuiesce(inst.m)
	return nil
}

// drive runs the app's standard workload against the instance.
func (r Runner) drive(inst *instance) workload.Result {
	d := &workload.Driver{
		OS: inst.os, M: inst.m, Port: inst.app.Port,
		Gen:         workload.ForProtocol(inst.app.Protocol),
		Concurrency: r.Concurrency,
		Seed:        r.Seed,
	}
	return d.Run(r.Requests)
}

// measure boots and drives, returning cycles/request plus the instance for
// stat extraction.
func (r Runner) measure(app *apps.App, o bootOpts) (*instance, workload.Result, error) {
	inst, err := boot(app, o)
	if err != nil {
		return nil, workload.Result{}, err
	}
	res := r.drive(inst)
	return inst, res, nil
}

// overheadPct converts a variant/baseline cycles-per-request pair into the
// paper's "normalized performance overhead" percentage. Dead-server runs
// report +Inf cycles/request (Result.CyclesPerRequest); any non-finite
// input would poison the whole column, so the aggregation degrades to 0
// and the run's death stays visible through the completed/failed columns.
func overheadPct(variant, baseline float64) float64 {
	if baseline == 0 || math.IsInf(variant, 0) || math.IsInf(baseline, 0) {
		return 0
	}
	return (variant/baseline - 1) * 100
}

// findLibBlock locates the nth block of fn containing a call to lib — the
// targeted fault placement used by the real-world case studies (§VI-F).
func findLibBlock(prog *ir.Program, fn, lib string, nth int) (faultinj.BlockRef, error) {
	f := prog.Funcs[fn]
	if f == nil {
		return faultinj.BlockRef{}, fmt.Errorf("bench: no function %q", fn)
	}
	seen := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpLib && b.Instrs[i].Name == lib {
				seen++
				if seen == nth {
					return faultinj.BlockRef{Func: fn, Block: b.ID}, nil
				}
			}
		}
	}
	return faultinj.BlockRef{}, fmt.Errorf("bench: %s has no %d-th call to %s", fn, nth, lib)
}

// planFaults profiles app under the standard workload and plans faults in
// non-critical executed blocks (the §VI-B methodology).
func (r Runner) planFaults(app *apps.App, kind faultinj.Kind, max int) ([]faultinj.Fault, error) {
	prog, err := app.Compile()
	if err != nil {
		return nil, err
	}
	osim := libsim.New(mem.NewSpace())
	if app.Setup != nil {
		app.Setup(osim)
	}
	m, err := interp.New(prog.Clone(), osim, nil)
	if err != nil {
		return nil, err
	}
	profile := faultinj.NewProfile()
	m.BlockHook = profile.HookFunc
	m.Run(5_000_000) // startup until the first block on I/O
	profile.MarkServing()
	d := &workload.Driver{
		OS: osim, M: m, Port: app.Port,
		Gen:         workload.ForProtocol(app.Protocol),
		Concurrency: r.Concurrency, Seed: r.Seed,
	}
	d.Run(r.Requests / 2)
	m.BlockHook = nil
	candidates := profile.ServingBlocks(prog.Entry)
	return faultinj.PlanFaults(prog, candidates, kind, max, r.Seed), nil
}
