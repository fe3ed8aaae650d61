package core

import (
	"github.com/firestarter-go/firestarter/internal/interp"
)

// The checkpoint ring is the rr-style half of the record/replay layer
// (internal/replay): with EnableCheckpoints armed, the runtime captures
// a registers snapshot plus a memory digest every K cycles, keeping the
// last N in a ring. Reverse-step restores "the nearest checkpoint" the
// only way a simulated world allows — by re-executing the deterministic
// run from boot — and uses the ring entries as verified anchors: a
// re-execution whose ring disagrees with the recording's has diverged.
//
// Checkpoints ride the per-instruction Tick the interpreter already
// issues, so they fire regardless of transaction state — including mid
// transaction. Disabled (the default) they cost one predictable branch
// per tick and change no observable behaviour.

// Checkpoint is one entry of the periodic snapshot ring.
type Checkpoint struct {
	Cycles int64 // machine cycle count at capture
	Steps  int64 // retired instruction count at capture
	Regs   *interp.Snapshot
	// RegDigest/MemDigest identify the captured state for comparison
	// without holding the other run's snapshot.
	RegDigest uint64
	MemDigest uint64
	Func      string // function on top of the stack
	Depth     int    // call-stack depth
	InTx      bool   // captured inside a live crash transaction
}

// EnableCheckpoints arms periodic state capture: one checkpoint at the
// first tick at or past every multiple of every cycles, keeping the most
// recent ring entries. every <= 0 disarms; ring <= 0 defaults to 64.
func (rt *Runtime) EnableCheckpoints(every int64, ring int) {
	if every <= 0 {
		rt.ckptEvery, rt.ckptRing = 0, nil
		return
	}
	if ring <= 0 {
		ring = 64
	}
	rt.ckptEvery = every
	rt.ckptNext = every
	rt.ckptRing = make([]Checkpoint, 0, ring)
	rt.ckptCap = ring
	rt.ckptHead = 0
}

// Checkpoints returns the ring's live entries, oldest first.
func (rt *Runtime) Checkpoints() []Checkpoint {
	n := len(rt.ckptRing)
	out := make([]Checkpoint, 0, n)
	// ckptHead is the next write slot; when the ring has wrapped the
	// oldest entry lives there.
	start := 0
	if n == rt.ckptCap {
		start = rt.ckptHead
	}
	for i := 0; i < n; i++ {
		out = append(out, rt.ckptRing[(start+i)%n])
	}
	return out
}

// InTransaction reports whether a crash transaction is currently live —
// the replay layer's state dumps record it so a forensic stop can tell
// "inside the protected window" from "between transactions".
func (rt *Runtime) InTransaction() bool { return rt.cur != nil }

// checkpoint captures the machine state into the ring (called from Tick
// when the cycle threshold is crossed).
func (rt *Runtime) checkpoint(m *interp.Machine) {
	snap := m.Snapshot()
	c := Checkpoint{
		Cycles:    m.Cycles,
		Steps:     m.Steps,
		Regs:      snap,
		RegDigest: snap.Digest(),
		MemDigest: rt.os.Space.Digest(),
		Func:      m.CurrentFunc(),
		Depth:     m.Depth(),
		InTx:      rt.cur != nil,
	}
	if len(rt.ckptRing) < rt.ckptCap {
		rt.ckptRing = append(rt.ckptRing, c)
		rt.ckptHead = len(rt.ckptRing) % rt.ckptCap
		return
	}
	rt.ckptRing[rt.ckptHead] = c
	rt.ckptHead = (rt.ckptHead + 1) % rt.ckptCap
}
