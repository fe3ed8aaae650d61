package bench

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// TestOpenLoopGolden pins the open-loop sweep's rendered table and span
// fingerprint at two seeds. The client side of the open-loop driver
// (connection queues, response framing, client scheduling) carries no
// cost-model state, so host-side optimisations to it must leave both
// values unchanged; a change here means a behaviour change.
func TestOpenLoopGolden(t *testing.T) {
	for _, g := range []struct {
		seed int64
		want string
	}{
		{1, "render=3e2ff9da040fc9e3 check=e305b5e22289ff72"},
		{2, "render=68ed35ebae2f3ab3 check=6c1da8dfcfe7f2c7"},
	} {
		seed, want := g.seed, g.want
		res, err := Runner{Requests: 60, Seed: seed}.OpenLoop()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		h := fnv.New64a()
		h.Write([]byte(res.Render()))
		got := fmt.Sprintf("render=%016x check=%016x", h.Sum64(), res.Fingerprint())
		if got != want {
			t.Errorf("seed %d: got %s, want %s", seed, got, want)
		}
	}
}
