package main

import (
	"strconv"
	"testing"
	"time"

	"github.com/firestarter-go/firestarter/internal/bench"
)

// TestComposedFig7MatchesHarness shows that the timed, layer-composed
// fig7-serve is the program bench.Runner.Figure7 runs: its overheads
// (cycles-per-request ratios) and abort rates are bit-identical, at the
// benchmark's first input seed and at its held-out seed.
func TestComposedFig7MatchesHarness(t *testing.T) {
	w, _ := workloadByName("fig7-serve")
	for _, seed := range []int64{1, w.inputSeeds(true)[0]} {
		got, _, _, _, err := composeFig7(seed, &recorder{origin: time.Now()})
		if err != nil {
			t.Fatal(err)
		}
		want, err := bench.Runner{Seed: seed, Parallelism: 1}.Figure7()
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("seed %d: %d rows, harness has %d", seed, len(got.Rows), len(want.Rows))
		}
		for i := range want.Rows {
			if got.Rows[i] != want.Rows[i] {
				t.Errorf("seed %d row %d: composed %+v, harness %+v", seed, i, got.Rows[i], want.Rows[i])
			}
		}
	}
}

// TestPinsCoverInputs checks that every input seed a run can visit has a
// pinned output, and that the cheapest pinned seed still reproduces.
func TestPinsCoverInputs(t *testing.T) {
	for _, w := range workloads {
		for _, s := range append(w.inputSeeds(false), w.inputSeeds(true)...) {
			if pins()[w.name][strconv.FormatInt(s, 10)] == "" {
				t.Errorf("%s: input seed %d has no pin", w.name, s)
			}
		}
	}
	w, _ := workloadByName("chaos-recover")
	seed := w.inputSeeds(true)[0]
	out, err := w.run(seed, &recorder{origin: time.Now()})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := digest(out), pins()[w.name][strconv.FormatInt(seed, 10)]; got != want {
		t.Errorf("%s input seed %d: output %s, pinned %s", w.name, seed, got, want)
	}
}
