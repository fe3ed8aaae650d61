package replay_test

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/firestarter-go/firestarter/internal/replay"
)

// FuzzLoad feeds arbitrary manifest and companion bytes to Load (go test
// -fuzz=FuzzLoad ./internal/replay): every input must load or return an
// error, never panic or hang. The seed is the firetrace manifest fixture
// and its span stream; inputs are written as manifest.json plus the
// fixture's companion name, manifest.spans.jsonl, in a fresh directory.
func FuzzLoad(f *testing.F) {
	const fixture = "../../cmd/firetrace/testdata/manifest"
	man, err := os.ReadFile(fixture + ".json")
	if err != nil {
		f.Fatal(err)
	}
	spans, err := os.ReadFile(fixture + ".spans.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(man, spans)
	f.Add(man, []byte{})
	f.Add([]byte("{}"), spans)
	f.Fuzz(func(t *testing.T, man, spans []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "manifest.json")
		if err := os.WriteFile(path, man, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "manifest.spans.jsonl"), spans, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := replay.Load(path)
		if err != nil {
			return
		}
		if len(rec.Spans) != len(rec.Manifest.SpanChain) {
			t.Fatalf("loaded %d spans against %d chain entries", len(rec.Spans), len(rec.Manifest.SpanChain))
		}
	})
}
