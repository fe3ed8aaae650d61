package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSpanJSONL feeds arbitrary bytes to the trace lint with -causality
// (go test -fuzz=FuzzSpanJSONL ./cmd/obsvlint): every input must lint to
// a bounded report, never panic or hang. Seeded with every span fixture
// in testdata.
func FuzzSpanJSONL(f *testing.F) {
	paths, err := filepath.Glob("testdata/*.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if errs := lint(bytes.NewReader(data), "trace", true); len(errs) > maxErrors+1 {
			t.Fatalf("%d errors, cap is %d + summary", len(errs), maxErrors)
		}
	})
}
