package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

const mod = "github.com/firestarter-go/firestarter/internal/"

func TestLayerOf(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // innermost first
		want  string
	}{
		{"memmove under ClientTakeN", []string{
			"runtime.memmove",
			mod + "libsim.(*Conn).ClientTakeN",
			mod + "workload.(*Driver).RunOpen",
			mod + "bench.Runner.OpenLoop",
		}, "libsim"},
		{"Sprintf under emitSpanTrace", []string{
			"fmt.(*pp).doPrintf",
			"fmt.Sprintf",
			mod + "core.(*Runtime).emitSpanTrace",
			mod + "core.(*Runtime).Handle",
			mod + "interp.(*Machine).Run",
		}, "core"},
		{"background mark worker", []string{
			"runtime.scanobject",
			"runtime.gcDrain",
			"runtime.gcBgMarkWorker",
		}, "gc"},
		{"mark assist inside a module's allocation", []string{
			"runtime.gcAssistAlloc",
			"runtime.mallocgc",
			mod + "obsv.(*SpanLog).Append",
		}, "gc"},
		{"unnamed package passed over", []string{
			mod + "ir.(*Program).Clone",
			mod + "bench.boot",
		}, "bench"},
		{"bytecode is dispatch", []string{mod + "bytecode.(*Code).run"}, "interp"},
		{"no module frame", []string{"runtime.futex", "runtime.mcall"}, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("%s: charged to %q, want %q", c.name, got, c.want)
		}
	}
}

func TestAttributeSumsToTotal(t *testing.T) {
	samples := []sample{
		{[]string{"runtime.memmove", mod + "libsim.(*Conn).ClientTakeN"}, 30e6},
		{[]string{"fmt.Sprintf", mod + "core.(*Runtime).emitSpanTrace"}, 20e6},
		{[]string{"runtime.gcBgMarkWorker"}, 10e6},
		{[]string{"runtime.futex"}, 10e6},
		{nil, 10e6},
	}
	shares := attribute(samples)
	if len(shares) != len(layerNames) {
		t.Fatalf("attribute returned %d layers, want every one of %d", len(shares), len(layerNames))
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-0.08) > 1e-12 {
		t.Errorf("layer shares sum to %v s, want the profile total 0.08 s", sum)
	}
	if shares["libsim"] != 0.03 || shares["core"] != 0.02 || shares["gc"] != 0.01 || shares["other"] != 0.02 {
		t.Errorf("shares = %v", shares)
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

// TestParseCPUProfile decodes a profile runtime/pprof wrote and checks
// that every sample is kept, with its stack, and that attribution
// accounts for all of its CPU time.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()

	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples decoded from a 300 ms busy loop")
	}
	var total int64
	found := false
	for _, s := range samples {
		total += s.nanos
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, "perfbench.spin") {
				found = true
			}
		}
	}
	if !found {
		t.Error("no sample has spin on its stack")
	}
	var sum float64
	for _, v := range attribute(samples) {
		sum += v
	}
	if math.Abs(sum-float64(total)/1e9) > 1e-9 {
		t.Errorf("attributed %v s of %v s", sum, float64(total)/1e9)
	}
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Error("parseCPUProfile accepted garbage")
	}
}
