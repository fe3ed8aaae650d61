// Command perfbench is the repository's host-side benchmark: it measures
// how long the simulator takes, in host time, to produce the paper's
// Figure 7 and to run the chaos and open-loop campaigns, and where that
// time goes among the repository's modules. README.md describes the
// workloads and metrics; run.py builds and runs it.
//
//	perfbench --workload fig7-serve --seed 1 --seconds 20 --trace 0
//
// Every operation runs in a fresh child process: Go start-up, set-up
// (compiling, hardening and booting the workload's apps to their quiesce
// points), then the timed phase (one campaign), then the check of its
// output against pins.json. The last line of standard output is the
// result as JSON.
package main

import (
	"bufio"
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

//go:embed pins.json
var pinsJSON []byte

// opTimeout bounds one child process, so a hung campaign fails its
// operation instead of the whole run.
const opTimeout = 60 * time.Second

func main() {
	var (
		wname   = flag.String("workload", "", "workload name (fig7-serve, chaos-recover, openloop-fleet)")
		seed    = flag.Int64("seed", 1, "orders the run's visits to the workload's input pool")
		seconds = flag.Float64("seconds", 10, "measure for this long (whole passes over the pool)")
		trace   = flag.Int("trace", 0, "1: a traced run reporting the per-layer metrics")
		heldout = flag.Bool("heldout", false, "run the workload's held-out input seed instead of its pool")
		pin     = flag.Bool("pin", false, "print pins.json for every workload's pool and held-out seed")
		spans   = flag.String("spans-dir", ".bench_build/trace", "directory the traced run writes its spans to")
		// Flags of the per-operation child process.
		opSeed = flag.Int64("op", 0, "child: run one operation at this input seed")
		t0     = flag.Int64("t0", 0, "child: the parent's clock at spawn, in Unix nanoseconds")
		traced = flag.Bool("traced", false, "child: profile the timed phase")
		onlySU = flag.Bool("setup-only", false, "child: stop after set-up")
	)
	flag.Parse()

	var err error
	switch {
	case *opSeed != 0:
		err = childMain(*wname, *opSeed, *t0, *traced, *onlySU)
	case *pin:
		err = pinMain()
	default:
		err = runMain(*wname, *seed, *seconds, *trace == 1, *heldout, *spans)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// opResult is what a child reports for its one operation.
type opResult struct {
	Seed      int64  `json:"seed"`
	Traced    bool   `json:"traced"`
	SetupOnly bool   `json:"setup_only"`
	Err       string `json:"err,omitempty"`

	// SetupS, WallS and CPUS are in reference seconds: measured times
	// scaled by the host speed the probe saw (probe.go). WallS is the
	// campaign thread's run time, RawRunS, so that time the host did
	// not run the campaign stays out of it; RawWallS is the wall time.
	// RawCPUS is the process's CPU time less the probe's own.
	SetupS    float64     `json:"setup_s"`
	WallS     float64     `json:"wall_s"`
	CPUS      float64     `json:"cpu_s"`
	RawSetupS float64     `json:"raw_setup_s"`
	RawWallS  float64     `json:"raw_wall_s"`
	RawRunS   float64     `json:"raw_run_s"`
	RawCPUS   float64     `json:"raw_cpu_s"`
	Probe     probeResult `json:"probe"`
	PeakRSSMB float64     `json:"peak_rss_mb"`
	Work      float64     `json:"work"`

	// Counts are deterministic for the input seed; Timed are host
	// measurements of layer calls and the Go runtime; Layers is CPU
	// time per layer from the profile (traced operations only).
	Counts map[string]float64 `json:"counts"`
	Timed  map[string]float64 `json:"timed"`
	Layers map[string]float64 `json:"layers,omitempty"`
	Spans  []span             `json:"spans"`
}

// childMain runs one operation in this process and prints its opResult.
// A set-up-only child reports set-up and stops there.
func childMain(wname string, seed, t0 int64, traced, setupOnly bool) error {
	w, ok := workloadByName(wname)
	if !ok {
		return fmt.Errorf("unknown workload %q", wname)
	}
	origin := time.Unix(0, t0)
	rec := &recorder{phase: "setup", origin: origin}
	res := opResult{Seed: seed, Traced: traced, SetupOnly: setupOnly}
	emit := func() error { return json.NewEncoder(os.Stdout).Encode(res) }

	if err := setup(w, rec); err != nil {
		res.Err = err.Error()
		return emit()
	}
	res.RawSetupS = time.Since(origin).Seconds()
	res.SetupS = res.RawSetupS * probeNow()
	if setupOnly {
		return emit()
	}
	runtime.GC() // set-up's garbage is not the campaign's

	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
	}
	rec.phase = "op"
	m0, ru0 := readGoMetrics(), rusage()
	smp := startSampler()
	// With Parallelism 1 the campaign runs on this goroutine alone;
	// locking it to its thread makes the thread's CPU time its run time.
	runtime.LockOSThread()
	start, run0 := time.Now(), threadCPU()
	out, runErr := w.run(seed, rec)
	res.RawRunS, res.RawWallS = threadCPU()-run0, time.Since(start).Seconds()
	runtime.UnlockOSThread()
	res.Probe = smp.finish()
	ru1, m1 := rusage(), readGoMetrics()
	if traced {
		pprof.StopCPUProfile()
	}
	res.RawCPUS = ru1 - ru0 - res.Probe.CPUS
	res.WallS = res.RawRunS * res.Probe.Speed
	res.CPUS = res.RawCPUS * res.Probe.Speed
	res.Spans = append([]span{{Phase: "setup", Name: "setup", EndNS: int64(res.RawSetupS * 1e9)}}, rec.spans...)
	if runErr != nil {
		res.Err = runErr.Error()
		return emit()
	}
	if got, want := digest(out), pins()[w.name][strconv.FormatInt(seed, 10)]; got != want {
		res.Err = fmt.Sprintf("output check: input seed %d gave %s, pinned %q", seed, got, want)
	}
	res.Work = out.work
	res.Counts = out.counts
	res.Timed = rec.calls(w.callsIn)
	if steps := res.Counts["interp.steps"]; steps > 0 {
		res.Timed["interp.host_ns_per_step"] = res.Timed["workload.drive_s"] * 1e9 / steps
	}
	res.Timed["gc.alloc_mb"] = (m1["/gc/heap/allocs:bytes"] - m0["/gc/heap/allocs:bytes"]) / 1e6
	res.Timed["gc.allocs"] = m1["/gc/heap/allocs:objects"] - m0["/gc/heap/allocs:objects"]
	res.Timed["gc.cycles"] = m1["/gc/cycles/total:gc-cycles"] - m0["/gc/cycles/total:gc-cycles"]
	res.Timed["gc.cpu_s"] = m1["/cpu/classes/gc/total:cpu-seconds"] - m0["/cpu/classes/gc/total:cpu-seconds"]
	runtime.GC()
	res.Timed["gc.live_heap_mb"] = readGoMetrics()["/gc/heap/live:bytes"] / 1e6
	runtime.KeepAlive(out.keep)
	res.PeakRSSMB = peakRSSMB()
	if traced {
		samples, err := parseCPUProfile(prof.Bytes())
		if err != nil {
			return err
		}
		res.Layers = attribute(samples)
	}
	return emit()
}

var goMetricNames = []string{
	"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects", "/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds", "/gc/heap/live:bytes",
}

func readGoMetrics() map[string]float64 {
	samples := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	out := map[string]float64{}
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[s.Name] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[s.Name] = s.Value.Float64()
		}
	}
	return out
}

// rusage returns this process's user+system CPU time in seconds.
func rusage() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is this process's peak resident set (VmHWM), in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}

var pinCache map[string]map[string]string

func pins() map[string]map[string]string {
	if pinCache == nil {
		if err := json.Unmarshal(pinsJSON, &pinCache); err != nil {
			pinCache = map[string]map[string]string{}
		}
	}
	return pinCache
}

// spawn runs one operation in a child process and returns its result; a
// child that fails to report is an operation that failed.
func spawn(w workloadDef, seed int64, traced, setupOnly bool) opResult {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	t0 := time.Now().UnixNano()
	cmd := exec.CommandContext(ctx, os.Args[0], "--workload", w.name,
		"--op", strconv.FormatInt(seed, 10), "--t0", strconv.FormatInt(t0, 10),
		"--traced="+strconv.FormatBool(traced), "--setup-only="+strconv.FormatBool(setupOnly))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	res := opResult{Seed: seed, Traced: traced, SetupOnly: setupOnly}
	if err != nil {
		res.Err = fmt.Sprintf("child: %v: %s", err, strings.TrimSpace(stderr.String()))
		return res
	}
	if err := json.Unmarshal(stdout, &res); err != nil {
		res.Err = fmt.Sprintf("child output: %v", err)
	}
	return res
}

// runMain measures one workload: whole passes over the input pool, each
// in an order drawn from seed, until seconds have passed. Each campaign
// is followed by the workload's set-up-only operations. A traced run
// alternates untraced and traced passes, so the tracing overhead is the
// difference of their medians.
func runMain(wname string, seed int64, seconds float64, trace, heldout bool, spansDir string) error {
	w, ok := workloadByName(wname)
	if !ok {
		return fmt.Errorf("unknown workload %q", wname)
	}
	if len(pins()[w.name]) == 0 {
		return fmt.Errorf("no pinned outputs for %s", w.name)
	}
	env, err := envStamp()
	if err != nil {
		return err
	}
	fmt.Println("env:", env)

	seeds := w.inputSeeds(heldout)
	rng := rand.New(rand.NewSource(seed))
	start := time.Now()
	var results []opResult
	for pass := 0; ; pass++ {
		traced := trace && pass%2 == 1
		for _, i := range rng.Perm(len(seeds)) {
			for k := 0; k < w.setups; k++ {
				r := spawn(w, seeds[i], traced, k > 0)
				if r.Err != "" {
					fmt.Fprintf(os.Stderr, "perfbench: %s input seed %d: %s\n", w.name, r.Seed, r.Err)
				}
				results = append(results, r)
			}
		}
		// Stop at the pass boundary nearest to the time asked for (a
		// traced run at an even number of passes), so a run lasts
		// seconds give or take half a pass.
		done := pass + 1
		elapsed := time.Since(start).Seconds()
		if elapsed+elapsed/float64(done)/2 >= seconds && (!trace || done%2 == 0) {
			break
		}
	}

	failed := 0
	for _, r := range results {
		if r.Err != "" {
			failed++
		}
	}
	var metricsOut map[string]metric
	if trace {
		metricsOut = perLayer(results)
		if err := writeSpans(spansDir, w.name, seed, results); err != nil {
			return err
		}
	} else {
		metricsOut = endToEnd(results)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   failed == 0,
		"attempted": len(results),
		"failed":    failed,
		"metrics":   metricsOut,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the end-to-end metrics: medians over the run's
// successful campaigns, and for setup_s over every successful set-up.
func endToEnd(results []opResult) map[string]metric {
	ok := campaigns(okResults(results))
	pick := func(f func(opResult) float64) float64 { return medianOf(ok, f) }
	return map[string]metric{
		"wall_s":      {pick(func(r opResult) float64 { return r.WallS }), "s"},
		"cpu_s":       {pick(func(r opResult) float64 { return r.CPUS }), "s"},
		"guest_mips":  {pick(func(r opResult) float64 { return r.Work / r.WallS / 1e6 }), "M/s"},
		"peak_rss_mb": {pick(func(r opResult) float64 { return r.PeakRSSMB }), "MB"},
		"setup_s":     {medianOf(okResults(results), func(r opResult) float64 { return r.SetupS }), "s"},
		"op_ok_frac":  {float64(len(okResults(results))) / float64(len(results)), "ratio"},
	}
}

// perLayerCounts are the deterministic counts every traced run reports; a
// count the workload does not produce reads 0. htm.commit_frac is derived
// from them.
var perLayerCounts = []string{
	"interp.steps", "interp.cycles", "core.gate_execs",
	"htm.begins", "htm.aborts", "htm.aborts_capacity",
	"stm.begins", "stm.stores_logged", "stm.peak_log_len",
	"mem.peak_pages", "workload.completed",
	"bench.campaigns", "core.recovered", "core.injected", "core.sheds",
	"supervisor.reboots", "supervisor.breaker_open", "workload.lost", "obsv.spans",
	"workload.offered", "workload.done", "workload.shed", "workload.peak_queue",
	"fleet.boots", "fleet.deaths",
}

// perLayerTimed are the host measurements of layer calls and the Go
// runtime, with their units.
var perLayerTimed = [][2]string{
	{"minic.compile_s", "s"}, {"transform.apply_s", "s"}, {"core.boot_s", "s"},
	{"workload.drive_s", "s"}, {"minic.compiles", "count"}, {"interp.host_ns_per_step", "ns"},
	{"gc.alloc_mb", "MB"}, {"gc.allocs", "count"}, {"gc.cycles", "count"},
	{"gc.cpu_s", "s"}, {"gc.live_heap_mb", "MB"},
}

// perLayer computes the per-layer metrics of a traced run: CPU time per
// layer averaged over traced operations, timed calls and runtime figures
// as medians over all operations, counts averaged per operation (whole
// passes, so deterministic), and the tracing overhead.
func perLayer(results []opResult) map[string]metric {
	ok := campaigns(okResults(results))
	out := map[string]metric{}
	var traced, untraced []float64
	layerSum := map[string]float64{}
	for _, r := range ok {
		if r.Traced {
			traced = append(traced, r.WallS)
			for l, v := range r.Layers {
				layerSum[l] += v
			}
		} else {
			untraced = append(untraced, r.WallS)
		}
	}
	for _, l := range layerNames {
		out[l+".self_s"] = metric{meanOf(layerSum[l], len(traced)), "s"}
	}
	out["trace.overhead_s"] = metric{median(traced) - median(untraced), "s"}
	pick := func(f func(opResult) float64) float64 { return medianOf(ok, f) }
	out["probe.speed"] = metric{pick(func(r opResult) float64 { return r.Probe.Speed }), "ratio"}
	out["raw.wall_s"] = metric{pick(func(r opResult) float64 { return r.RawWallS }), "s"}
	out["raw.run_s"] = metric{pick(func(r opResult) float64 { return r.RawRunS }), "s"}
	out["raw.cpu_s"] = metric{pick(func(r opResult) float64 { return r.RawCPUS }), "s"}
	for _, t := range perLayerTimed {
		vals := make([]float64, 0, len(ok))
		for _, r := range ok {
			vals = append(vals, r.Timed[t[0]])
		}
		out[t[0]] = metric{median(vals), t[1]}
	}
	counts := map[string]float64{}
	for _, r := range ok {
		for k, v := range r.Counts {
			counts[k] += v
		}
	}
	for _, k := range perLayerCounts {
		out[k] = metric{meanOf(counts[k], len(ok)), "count"}
	}
	frac := 0.0
	if counts["htm.begins"] > 0 {
		frac = counts["htm.commits"] / counts["htm.begins"]
	}
	out["htm.commit_frac"] = metric{frac, "ratio"}
	out["obsv.spans_per_trace"] = metric{meanOf(counts["obsv.spans_per_trace"], len(ok)), "ratio"}
	return out
}

func okResults(results []opResult) []opResult {
	var ok []opResult
	for _, r := range results {
		if r.Err == "" {
			ok = append(ok, r)
		}
	}
	return ok
}

// campaigns drops the set-up-only operations.
func campaigns(results []opResult) []opResult {
	var out []opResult
	for _, r := range results {
		if !r.SetupOnly {
			out = append(out, r)
		}
	}
	return out
}

func meanOf(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func medianOf(results []opResult, f func(opResult) float64) float64 {
	vals := make([]float64, len(results))
	for i, r := range results {
		vals[i] = f(r)
	}
	return median(vals)
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// writeSpans writes the run's spans as JSONL, one line per span, the
// operation index in "op".
func writeSpans(dir, wname string, seed int64, results []opResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", wname, seed)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i, r := range results {
		for _, s := range r.Spans {
			s.Op = i
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// envStamp describes where the figures were measured: Go version,
// GOMAXPROCS, CPU count and model, and the code measured — the git
// commit when the working directory is a git checkout, and always a
// digest of the Go sources.
func envStamp() (string, error) {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "none"
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	src, err := sourceDigest(".")
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("go=%s GOMAXPROCS=%d nproc=%d cpu=%q commit=%s src=%s",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpu, commit, src), nil
}

// sourceDigest hashes every go.mod and .go file under root, skipping
// dot-directories (build output, VCS metadata).
func sourceDigest(root string) (string, error) {
	h := fnv.New64a()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("source digest: %w", err)
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// pinMain runs every workload's pool and held-out seed once, in this
// process, and prints the digests as pins.json.
func pinMain() error {
	out := map[string]map[string]string{}
	for _, w := range workloads {
		out[w.name] = map[string]string{}
		for _, s := range append(w.inputSeeds(false), w.inputSeeds(true)...) {
			o, err := w.run(s, &recorder{origin: time.Now()})
			if err != nil {
				return fmt.Errorf("%s input seed %d: %w", w.name, s, err)
			}
			out[w.name][strconv.FormatInt(s, 10)] = digest(o)
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
