package bench

import (
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/firestarter-go/firestarter/internal/obsv"
)

// TestChaosGolden pins the chaos soak's rendered table and span
// fingerprint at the host benchmark's chaos-recover configuration
// (30 requests x 2 faults per app, seed 1). The crash, rollback and span
// logging fast paths carry no cost-model state, so host-side
// optimisations to them must leave both values unchanged. The campaign
// overflows its span logs, so it also covers the truncation path: the
// spans must hold truncated markers, whose Detail (rendered on read and
// left out of the fingerprint) is pinned too.
func TestChaosGolden(t *testing.T) {
	res, err := Runner{Requests: 30, FaultsPerServer: 2, Seed: 1}.Chaos()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write([]byte(res.Render()))
	got := fmt.Sprintf("render=%016x check=%016x", h.Sum64(), res.Fingerprint())
	if want := "render=96b8aa6986338cf8 check=6b0bf78a53b6963a"; got != want {
		t.Errorf("got %s, want %s", got, want)
	}
	truncated := 0
	for _, e := range res.Spans {
		if e.Kind != obsv.SpanTruncated {
			continue
		}
		truncated++
		if want := "dropped=605748 limit=50000"; e.Detail != want {
			t.Errorf("truncated marker at cycle %d: detail %q, want %q", e.Cycles, e.Detail, want)
		}
	}
	if truncated == 0 {
		t.Error("no truncated marker: the campaign no longer exercises the span drop path")
	} else if truncated != 8 {
		t.Errorf("%d truncated markers, want 8", truncated)
	}
}
