package replay_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/firestarter-go/firestarter/internal/replay"
)

// TestLoadRejectsNegativeSchedule edits the schedule of a copy of the
// firetrace manifest fixture: every negative count or size must be
// rejected at Load with an error naming the field, instead of surfacing
// later as a span-chain divergence at replay. Zero stays legal (it
// records the driver default).
func TestLoadRejectsNegativeSchedule(t *testing.T) {
	const fixture = "../../cmd/firetrace/testdata/manifest.json"
	raw, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	spans, err := os.ReadFile(strings.TrimSuffix(fixture, ".json") + ".spans.jsonl")
	if err != nil {
		t.Fatal(err)
	}

	tests := []struct {
		name  string
		edit  func(sched map[string]any)
		field string // "" = must load
	}{
		{"fixture", func(map[string]any) {}, ""},
		{"zero requests", func(s map[string]any) { s["requests"] = 0 }, ""},
		{"zero open sizes", func(s map[string]any) { s["open"] = map[string]any{"total": 0, "clients": 0} }, ""},
		{"requests", func(s map[string]any) { s["requests"] = -1 }, "schedule.requests"},
		{"concurrency", func(s map[string]any) { s["concurrency"] = -2 }, "schedule.concurrency"},
		{"open.total", func(s map[string]any) { s["open"] = map[string]any{"total": -1} }, "schedule.open.total"},
		{"open.clients", func(s map[string]any) { s["open"] = map[string]any{"clients": -1} }, "schedule.open.clients"},
		{"open.max_conns", func(s map[string]any) { s["open"] = map[string]any{"max_conns": -1} }, "schedule.open.max_conns"},
		{"open.pipeline_depth", func(s map[string]any) { s["open"] = map[string]any{"pipeline_depth": -1} }, "schedule.open.pipeline_depth"},
		{"open.slow_bytes", func(s map[string]any) { s["open"] = map[string]any{"slow_bytes": -3} }, "schedule.open.slow_bytes"},
		{"open.frag_size", func(s map[string]any) { s["open"] = map[string]any{"frag_size": -4} }, "schedule.open.frag_size"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var man map[string]any
			if err := json.Unmarshal(raw, &man); err != nil {
				t.Fatal(err)
			}
			tt.edit(man["schedule"].(map[string]any))
			data, err := json.Marshal(man)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			path := filepath.Join(dir, "manifest.json")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, man["spans_file"].(string)), spans, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = replay.Load(path)
			switch {
			case tt.field == "" && err != nil:
				t.Fatalf("Load rejected a valid manifest: %v", err)
			case tt.field != "" && err == nil:
				t.Fatalf("Load accepted a negative %s", tt.field)
			case tt.field != "" && !strings.Contains(err.Error(), tt.field+" is "):
				t.Fatalf("error does not name %s: %v", tt.field, err)
			}
		})
	}
}
