package bench

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"github.com/firestarter-go/firestarter/internal/obsv"
)

// The fleet experiment is the determinism tentpole: for a fixed seed the
// rendered table, the merged span log and the trace bytes are
// byte-identical across repeats and across harness parallelism.
func TestFleetDeterministicAcrossRepeatsAndParallelism(t *testing.T) {
	base := Runner{Requests: 30, Concurrency: 2, Seed: 3}
	run := func(r Runner) (string, FleetResult) {
		res, err := r.Fleet(1, 2)
		if err != nil {
			t.Fatal(err)
		}
		return res.Render(), res
	}
	r1, res1 := run(base)
	r2, res2 := run(base)
	if r1 != r2 {
		t.Errorf("repeat render diverged:\n%s\nvs\n%s", r1, r2)
	}
	if !reflect.DeepEqual(res1.Spans, res2.Spans) {
		t.Error("repeat span logs diverged")
	}

	par := base
	par.Parallelism = 4
	r3, res3 := run(par)
	if r1 != r3 {
		t.Errorf("parallel render diverged:\n%s\nvs\n%s", r1, r3)
	}
	if !reflect.DeepEqual(res1.Spans, res3.Spans) {
		t.Error("parallel span log diverged from serial")
	}

	var tr1, tr3 bytes.Buffer
	if err := res1.WriteTrace(&tr1); err != nil {
		t.Fatal(err)
	}
	if err := res3.WriteTrace(&tr3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tr1.Bytes(), tr3.Bytes()) {
		t.Error("trace bytes diverged across parallelism")
	}
}

// The experiment-global span log (rebased across campaigns) must stay
// causally valid: exactly one terminal per started trace, no orphaned
// trace references, no silent request drops.
func TestFleetGlobalSpanLogIsCausal(t *testing.T) {
	r := Runner{Requests: 30, Concurrency: 2, Seed: 5}
	res, err := r.Fleet(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if errs := obsv.CheckCausality(res.Spans); len(errs) > 0 {
		t.Fatalf("global span log causality:\n  %s", strings.Join(errs, "\n  "))
	}
	if len(res.Rows) != 2 || res.Rows[0].Replicas != 1 || res.Rows[1].Replicas != 2 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	for _, row := range res.Rows {
		if row.Campaigns == 0 || row.Completed == 0 || row.Goodput <= 0 {
			t.Errorf("degenerate row: %+v", row)
		}
	}
	if res.Traces == 0 {
		t.Error("no traced requests")
	}
	// Every campaign booted at least its replica count once.
	if res.Rows[1].Boots < 2*res.Rows[1].Campaigns {
		t.Errorf("2-replica row booted %d times across %d campaigns",
			res.Rows[1].Boots, res.Rows[1].Campaigns)
	}
}
