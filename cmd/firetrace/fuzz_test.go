package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSpanJSONL feeds arbitrary bytes through the whole trace analysis
// (go test -fuzz=FuzzSpanJSONL ./cmd/firetrace): every input must parse
// and render or be rejected by parseSpans, never panic or hang. Seeded
// with every span fixture in testdata.
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
		spans, err := parseSpans(bytes.NewReader(data))
		if err != nil {
			return
		}
		rep := analyze(spans)
		rep.violations()
		rep.summary("fuzz")
		rep.breakdown()
		rep.timeline(3)
		if err := rep.writeChrome(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
}
