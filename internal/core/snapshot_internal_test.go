package core

import (
	"testing"

	"github.com/firestarter-go/firestarter/internal/interp"
	"github.com/firestarter-go/firestarter/internal/libsim"
	"github.com/firestarter-go/firestarter/internal/mem"
	"github.com/firestarter-go/firestarter/internal/minic"
	"github.com/firestarter-go/firestarter/internal/transform"
)

// TestLongLivedSnapshotsNeverRecycled: gate snapshots are handed back to
// the machine at commit and rollback and their storage reused, but the
// quiesce snapshot and the checkpoint ring's snapshots outlive every
// transaction. A run with many gates, crashes and rollbacks must leave
// them bit-identical to their capture, and no later Snapshot may return
// one of them.
func TestLongLivedSnapshotsNeverRecycled(t *testing.T) {
	src := `
int handle(int i) {
	char *p = malloc(64);
	if (!p) { return -1; }
	if (i % 7 == 3) {
		int *q = NULL;
		*q = 1;
	}
	free(p);
	return 0;
}
int main() {
	int i = 0;
	while (i < 60) {
		handle(i);
		i = i + 1;
	}
	return 0;
}
`
	prog, err := minic.Compile(src, minic.Config{KnownLib: libsim.Known})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	tr, err := transform.Apply(prog, nil)
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	o := libsim.New(mem.NewSpace())
	rt := New(tr, o, Config{})
	m, err := interp.New(tr.Prog, o, rt)
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	rt.Attach(m)
	rt.EnableCheckpoints(500, 8)
	rt.ArmQuiesce(m)
	quiesce, quiesceDigest := rt.quiesce, rt.quiesce.Digest()

	if out := m.Run(20_000_000); out.Kind != interp.OutExited {
		t.Fatalf("outcome = %v (trap %v), want exit", out.Kind, out.Trap)
	}
	st := rt.Stats()
	if st.GateExecs < 60 || st.Crashes == 0 {
		t.Fatalf("gate execs = %d, crashes = %d: the run did not exercise recycling", st.GateExecs, st.Crashes)
	}

	if rt.quiesce != quiesce || quiesce.Digest() != quiesceDigest {
		t.Error("quiesce snapshot changed during the run")
	}
	ring := rt.Checkpoints()
	if len(ring) != 8 {
		t.Fatalf("checkpoint ring holds %d entries, want 8", len(ring))
	}
	long := map[*interp.Snapshot]bool{quiesce: true}
	for i, c := range ring {
		if c.Regs.Digest() != c.RegDigest {
			t.Errorf("checkpoint %d (cycle %d) changed after capture", i, c.Cycles)
		}
		long[c.Regs] = true
	}
	// Drain the machine's free list and more: none of the fresh
	// snapshots may be a long-lived one.
	for i := 0; i < 16; i++ {
		if s := m.Snapshot(); long[s] {
			t.Fatalf("Snapshot %d returned a long-lived snapshot", i)
		}
	}
}
