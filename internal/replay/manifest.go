// Package replay is the flight recorder: deterministic record/replay
// for supervised campaign runs, plus rr-style reverse-step forensics.
//
// The simulation is a closed, seeded cycle domain — a run is a pure
// function of (program, fault plan, runtime config, seeds, workload
// schedule). Recording therefore captures *inputs*, not state: a
// Manifest names everything one run consumed, and a companion JSONL
// file holds the span stream the run produced, each span annotated in
// the manifest with the value of an incremental hash chain
// (obsv.ChainFingerprint). Replaying rebuilds the identical world from
// the manifest and verifies the live span chain against the recording;
// the first divergent span is a hard error naming both sides.
//
// Two manifest kinds exist. An "incarnation" manifest records one
// supervised incarnation of a chaos campaign — independently
// replayable because every incarnation boots a fresh world from its
// own supervisor-issued seed. An "openloop" manifest records one rung
// of the open-loop sweep (a 1-replica fleet); it replays verify-only,
// since the interesting machine state is spread across fleet
// incarnations.
package replay

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"github.com/firestarter-go/firestarter/internal/core"
	"github.com/firestarter-go/firestarter/internal/faultinj"
	"github.com/firestarter-go/firestarter/internal/obsv"
	"github.com/firestarter-go/firestarter/internal/workload"
)

// Version is the manifest wire-format version.
const Version = 1

// Manifest kinds.
const (
	KindIncarnation = "incarnation"
	KindOpenLoop    = "openloop"
)

// Recorded outcomes — only failing runs are recorded, so these are the
// only two values.
const (
	OutcomeUnrecovered = "unrecovered"
	OutcomeBreakerOpen = "breaker-open"
)

// Manifest is the serializable description of everything one recorded
// run consumed, plus the span-stream fingerprint it produced.
type Manifest struct {
	Version int    `json:"version"`
	Kind    string `json:"kind"` // "incarnation" or "openloop"
	App     string `json:"app"`
	Backend string `json:"backend,omitempty"` // "" / "tree" / "bytecode"

	// Core is the runtime configuration the run booted with. For
	// openloop manifests the HTM seed is per-incarnation (the fleet
	// derives it); the recorded value is the pre-seed template.
	Core core.Config `json:"core"`

	// Fault is the planted fault (name-encoded kind; see faultinj).
	Fault *faultinj.Fault `json:"fault,omitempty"`

	// Incarnation is the 1-based supervisor incarnation this manifest
	// records (incarnation manifests only).
	Incarnation int `json:"incarnation,omitempty"`

	// Schedule is the workload the run consumed; Schedule.Seed is the
	// driver seed (and, for openloop, the fleet's supervision seed).
	Schedule workload.Schedule `json:"schedule"`

	// Outcome is why the run was recorded: "unrecovered" or
	// "breaker-open".
	Outcome string `json:"outcome"`

	// FaultCycle is the machine-local cycle of the first unrecovered
	// span (the default -stop-at-cycle target), or the final cycle
	// count when the run died without one.
	FaultCycle int64 `json:"fault_cycle,omitempty"`

	// FinalCycles/FinalSteps are the machine's counters when the run
	// ended. FinalSteps anchors the default stop point and reverse-step
	// (steps are exact where cycle thresholds straddle instruction
	// costs); openloop manifests record fleet wall cycles and no steps.
	FinalCycles int64 `json:"final_cycles"`
	FinalSteps  int64 `json:"final_steps,omitempty"`

	// Fingerprint is the final span-chain value (16 hex digits), and
	// SpanChain the chain value after each span — the divergence
	// detector: the first replayed span whose chain value differs names
	// exactly where the re-execution left the recording.
	Fingerprint string   `json:"fingerprint"`
	SpanChain   []string `json:"span_chain"`

	// SpansFile names the companion JSONL span stream, relative to the
	// manifest's directory.
	SpansFile string `json:"spans_file,omitempty"`
}

// Recording pairs a manifest with the span stream it fingerprints.
type Recording struct {
	Manifest Manifest
	Spans    []obsv.SpanEvent
}

// fpHex renders a chain value the way manifests store it.
func fpHex(fp uint64) string { return fmt.Sprintf("%016x", fp) }

// ParseFingerprint decodes a manifest fingerprint field.
func ParseFingerprint(s string) (uint64, error) {
	fp, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("replay: bad fingerprint %q: %v", s, err)
	}
	return fp, nil
}

// chainOf walks the span stream through the incremental fingerprint,
// returning the per-span chain values and the final one.
func chainOf(spans []obsv.SpanEvent) ([]string, string) {
	fp := obsv.FingerprintSeed
	chain := make([]string, 0, len(spans))
	for _, e := range spans {
		fp = obsv.ChainFingerprint(fp, e)
		chain = append(chain, fpHex(fp))
	}
	return chain, fpHex(fp)
}

// NormalizeSpans re-stamps a merged span stream (fleet/campaign logs
// carry per-incarnation sequence numbers) with dense 1-based sequence
// numbers, exactly as the exported JSONL trace does — the canonical
// form openloop manifests fingerprint.
func NormalizeSpans(spans []obsv.SpanEvent) []obsv.SpanEvent {
	log := &obsv.SpanLog{Limit: len(spans) + 1}
	for _, e := range spans {
		e.Seq = 0
		log.Append(e)
	}
	return log.Events()
}

// FailureOutcome classifies a span stream for recording: "unrecovered"
// if any unrecovered span is present, else "breaker-open" if the
// breaker opened, else "" (nothing worth recording).
func FailureOutcome(spans []obsv.SpanEvent) string {
	breaker := false
	for _, e := range spans {
		switch e.Kind {
		case obsv.SpanUnrecovered:
			return OutcomeUnrecovered
		case obsv.SpanBreakerOpen:
			breaker = true
		}
	}
	if breaker {
		return OutcomeBreakerOpen
	}
	return ""
}

// faultCycle finds the first unrecovered span's cycle stamp, falling
// back to the run's final cycle count.
func faultCycle(spans []obsv.SpanEvent, final int64) int64 {
	for _, e := range spans {
		if e.Kind == obsv.SpanUnrecovered {
			return e.Cycles
		}
	}
	return final
}

// IncarnationRun is everything one supervised incarnation consumed —
// the input to RecordIncarnation.
type IncarnationRun struct {
	App         string
	Backend     string
	Core        core.Config
	Fault       *faultinj.Fault
	Incarnation int
	Seed        int64 // supervisor-issued incarnation seed (= driver seed)
	Proto       string
	Requests    int // remaining workload budget at incarnation start
	Concurrency int
	TraceBase   int64 // trace-ID base at incarnation start
	Outcome     string
	FinalCycles int64
	FinalSteps  int64
	Spans       []obsv.SpanEvent // the incarnation's own span log, pre-rebase
}

// RecordIncarnation builds an incarnation recording.
func RecordIncarnation(r IncarnationRun) Recording {
	chain, final := chainOf(r.Spans)
	var fault *faultinj.Fault
	if r.Fault != nil {
		f := *r.Fault
		fault = &f
	}
	return Recording{
		Manifest: Manifest{
			Version:     Version,
			Kind:        KindIncarnation,
			App:         r.App,
			Backend:     r.Backend,
			Core:        r.Core,
			Fault:       fault,
			Incarnation: r.Incarnation,
			Schedule: workload.Schedule{
				Kind:        "closed",
				Proto:       r.Proto,
				Seed:        r.Seed,
				Requests:    r.Requests,
				Concurrency: r.Concurrency,
				TraceBase:   r.TraceBase,
			},
			Outcome:     r.Outcome,
			FaultCycle:  faultCycle(r.Spans, r.FinalCycles),
			FinalCycles: r.FinalCycles,
			FinalSteps:  r.FinalSteps,
			Fingerprint: final,
			SpanChain:   chain,
		},
		Spans: append([]obsv.SpanEvent(nil), r.Spans...),
	}
}

// OpenLoopRun is everything one open-loop rung consumed — the input to
// RecordOpenLoop.
type OpenLoopRun struct {
	App         string
	Backend     string
	Core        core.Config
	Fault       *faultinj.Fault
	Seed        int64 // rung seed: driver + fleet supervision
	Proto       string
	Open        workload.OpenConfig
	Outcome     string
	FinalCycles int64            // fleet wall cycles
	Spans       []obsv.SpanEvent // fleet-merged spans, pre-normalization
}

// RecordOpenLoop builds an open-loop rung recording. The fingerprinted
// stream is the normalized (densely re-sequenced) fleet span log.
func RecordOpenLoop(r OpenLoopRun) Recording {
	spans := NormalizeSpans(r.Spans)
	chain, final := chainOf(spans)
	var fault *faultinj.Fault
	if r.Fault != nil {
		f := *r.Fault
		fault = &f
	}
	open := r.Open
	return Recording{
		Manifest: Manifest{
			Version: Version,
			Kind:    KindOpenLoop,
			App:     r.App,
			Backend: r.Backend,
			Core:    r.Core,
			Fault:   fault,
			Schedule: workload.Schedule{
				Kind:  "open",
				Proto: r.Proto,
				Seed:  r.Seed,
				Open:  &open,
			},
			Outcome:     r.Outcome,
			FaultCycle:  faultCycle(spans, r.FinalCycles),
			FinalCycles: r.FinalCycles,
			Fingerprint: final,
			SpanChain:   chain,
		},
		Spans: spans,
	}
}

// WriteSpans writes a span stream as JSONL, one event per line — the
// byte format of companion files and of firetrace -replay-spans, so
// the two can be compared with cmp.
func WriteSpans(w io.Writer, spans []obsv.SpanEvent) error {
	enc := json.NewEncoder(w)
	for _, e := range spans {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}

// writeFile creates path and writes through render, propagating close
// errors.
func writeFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Write stores the recording as dir/base.json plus the companion span
// stream dir/base.spans.jsonl, creating dir as needed, and returns the
// manifest path.
func (rec Recording) Write(dir, base string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	rec.Manifest.SpansFile = base + ".spans.jsonl"
	if err := writeFile(filepath.Join(dir, rec.Manifest.SpansFile), func(w io.Writer) error {
		return WriteSpans(w, rec.Spans)
	}); err != nil {
		return "", err
	}
	path := filepath.Join(dir, base+".json")
	err := writeFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rec.Manifest)
	})
	return path, err
}

// Load reads a manifest and its companion span stream, verifying the
// stored fingerprint against the spans — a mismatched or edited
// companion fails here rather than as a bogus replay divergence.
func Load(path string) (Recording, error) {
	var rec Recording
	data, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(data, &rec.Manifest); err != nil {
		return rec, fmt.Errorf("replay: %s: %v", path, err)
	}
	man := &rec.Manifest
	if man.Version != Version {
		return rec, fmt.Errorf("replay: %s: manifest version %d, want %d", path, man.Version, Version)
	}
	switch man.Kind {
	case KindIncarnation, KindOpenLoop:
	default:
		return rec, fmt.Errorf("replay: %s: unknown manifest kind %q", path, man.Kind)
	}
	if err := man.Schedule.Validate(); err != nil {
		return rec, fmt.Errorf("replay: %s: schedule.%v", path, err)
	}
	if _, err := ParseFingerprint(man.Fingerprint); err != nil {
		return rec, fmt.Errorf("replay: %s: %v", path, err)
	}
	if man.SpansFile != "" {
		spans, err := readSpans(filepath.Join(filepath.Dir(path), man.SpansFile))
		if err != nil {
			return rec, fmt.Errorf("replay: %s: companion: %v", path, err)
		}
		rec.Spans = spans
	}
	if len(rec.Spans) != len(man.SpanChain) {
		return rec, fmt.Errorf("replay: %s: %d spans but %d chain entries",
			path, len(rec.Spans), len(man.SpanChain))
	}
	if _, final := chainOf(rec.Spans); final != man.Fingerprint {
		return rec, fmt.Errorf("replay: %s: companion span stream fingerprints to %s, manifest says %s",
			path, final, man.Fingerprint)
	}
	return rec, nil
}

// readSpans decodes a companion JSONL span stream.
func readSpans(path string) ([]obsv.SpanEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var spans []obsv.SpanEvent
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e obsv.SpanEvent
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		spans = append(spans, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return spans, nil
}
