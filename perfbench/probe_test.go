package main

import (
	"math"
	"testing"
)

// TestSummarise checks that the host speed is the mean of the chunks'
// speeds: a phase spent half at reference speed and half at half of it
// ran at three quarters of it.
func TestSummarise(t *testing.T) {
	r := summarise([]float64{probeRefS, 2 * probeRefS})
	if r.Samples != 2 || math.Abs(r.Speed-0.75) > 1e-12 {
		t.Errorf("summarise: %+v, want 2 samples, speed 0.75", r)
	}
	if math.Abs(r.CPUS-3*probeRefS) > 1e-12 {
		t.Errorf("summarise: probe CPU %g, want %g", r.CPUS, 3*probeRefS)
	}
	if r := summarise(nil); r.Speed != 1 {
		t.Errorf("summarise with no samples: %+v, want speed 1", r)
	}
}

// TestSamplerSamples checks that the sampler takes samples beside a busy
// goroutine and that its speeds are positive and finite.
func TestSamplerSamples(t *testing.T) {
	s := startSampler()
	p := &probeState{code: probeCode}
	for i := 0; i < 400; i++ {
		p.chunk()
	}
	r := s.finish()
	if r.Samples == 0 {
		t.Fatal("no samples")
	}
	for _, v := range []float64{r.Speed, probeNow()} {
		if !(v > 0) || math.IsInf(v, 0) {
			t.Errorf("speed %g, want positive and finite", v)
		}
	}
}
