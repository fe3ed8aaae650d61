package interp

// White-box tests for snapshot recycling and lazy trap positions: they
// drive push/pop and inspect frames directly, so they live inside the
// package.

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/firestarter-go/firestarter/internal/ir"
)

// snapModel is an independent deep copy of a snapshot's contents, taken
// when the snapshot is, to check restores against.
type snapModel struct {
	sp     int64
	frames []Frame
}

func modelOf(m *Machine) snapModel {
	md := snapModel{sp: m.sp, frames: make([]Frame, len(m.frames))}
	for i, f := range m.frames {
		f.Regs = append([]int64(nil), f.Regs...)
		md.frames[i] = f
	}
	return md
}

// sameState reports how the machine's resumable state differs from md
// ("" when equal).
func sameState(m *Machine, md snapModel) string {
	if m.sp != md.sp {
		return fmt.Sprintf("sp %#x, want %#x", m.sp, md.sp)
	}
	if len(m.frames) != len(md.frames) {
		return fmt.Sprintf("depth %d, want %d", len(m.frames), len(md.frames))
	}
	for i := range md.frames {
		got, want := &m.frames[i], &md.frames[i]
		if got.Fn != want.Fn || got.Blk != want.Blk || got.Idx != want.Idx ||
			got.FP != want.FP || got.RetDst != want.RetDst {
			return fmt.Sprintf("frame %d position %s.b%d.%d, want %s.b%d.%d",
				i, got.Fn.Name, got.Blk, got.Idx, want.Fn.Name, want.Blk, want.Idx)
		}
		if len(got.Regs) != len(want.Regs) {
			return fmt.Sprintf("frame %d has %d regs, want %d", i, len(got.Regs), len(want.Regs))
		}
		for r := range want.Regs {
			if got.Regs[r] != want.Regs[r] {
				return fmt.Sprintf("frame %d reg %d = %d, want %d", i, r, got.Regs[r], want.Regs[r])
			}
		}
	}
	return ""
}

// snapTestMachine builds a machine over a program with functions of
// several register-file sizes, so frames of different shapes get pushed.
func snapTestMachine(t *testing.T) (*Machine, []*ir.Func) {
	t.Helper()
	prog := ir.NewProgram()
	var fns []*ir.Func
	for i, n := range []int{1, 3, 8, 17, 40} {
		f := &ir.Func{Name: fmt.Sprintf("f%d", i), NumRegs: n, FrameSize: int64(16 * (i + 1))}
		b := f.NewBlock("entry")
		b.Instrs = []ir.Instr{{Op: ir.OpRet, A: -1}}
		f.NewBlock("more").Instrs = []ir.Instr{{Op: ir.OpRet, A: -1}}
		prog.AddFunc(f)
		fns = append(fns, f)
	}
	main := leafFunc("main", 0, 0)
	main.NumRegs = 5
	prog.AddFunc(main)
	return newTestMachine(t, prog, nil), fns
}

// TestSnapshotRecyclingModel runs random push / mutate / pop / Snapshot /
// Release / Restore sequences and checks every restore, and every live
// snapshot at the end, against a deep copy taken with the snapshot: a
// recycled snapshot's storage must never leak into a live one.
func TestSnapshotRecyclingModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, fns := snapTestMachine(t)
		type live struct {
			s  *Snapshot
			md snapModel
		}
		var snaps []live
		drop := func(i int) {
			snaps[i] = snaps[len(snaps)-1]
			snaps = snaps[:len(snaps)-1]
		}
		for step := 0; step < 2000; step++ {
			switch op := rng.Intn(7); {
			case op == 0 && len(m.frames) < 12:
				fn := fns[rng.Intn(len(fns))]
				args := make([]int64, rng.Intn(fn.NumRegs+1))
				for i := range args {
					args[i] = rng.Int63()
				}
				if err := m.push(fn, args, rng.Intn(2)-1); err != nil {
					t.Fatalf("seed %d step %d: push: %v", seed, step, err)
				}
			case op == 1 && len(m.frames) > 1:
				if err := m.doReturn(&ir.Instr{Op: ir.OpRet, A: -1}); err != nil {
					t.Fatalf("seed %d step %d: pop: %v", seed, step, err)
				}
			case op == 2:
				f := &m.frames[rng.Intn(len(m.frames))]
				f.Regs[rng.Intn(len(f.Regs))] = rng.Int63()
				top := &m.frames[len(m.frames)-1]
				top.Blk, top.Idx = rng.Intn(len(top.Fn.Blocks)), rng.Intn(4)
			case op == 3:
				snaps = append(snaps, live{m.Snapshot(), modelOf(m)})
			case op == 4 && len(snaps) > 0:
				i := rng.Intn(len(snaps))
				m.ReleaseSnapshot(snaps[i].s)
				drop(i)
			case op >= 5 && len(snaps) > 0:
				i := rng.Intn(len(snaps))
				m.Restore(snaps[i].s)
				if diff := sameState(m, snaps[i].md); diff != "" {
					t.Fatalf("seed %d step %d: restore: %s", seed, step, diff)
				}
				// The runtime's pattern: a rolled-back gate snapshot dies.
				if rng.Intn(2) == 0 {
					m.ReleaseSnapshot(snaps[i].s)
					drop(i)
				}
			}
		}
		for _, l := range snaps {
			m.Restore(l.s)
			if diff := sameState(m, l.md); diff != "" {
				t.Fatalf("seed %d: live snapshot corrupted: %s", seed, diff)
			}
		}
	}
}

// TestSnapshotReleaseSteadyStateNoAlloc gates the per-gate cost: once a
// released snapshot of the right shape is on the free list, taking and
// releasing one allocates nothing.
func TestSnapshotReleaseSteadyStateNoAlloc(t *testing.T) {
	m, fns := snapTestMachine(t)
	for _, fn := range fns {
		if err := m.push(fn, nil, -1); err != nil {
			t.Fatal(err)
		}
	}
	m.ReleaseSnapshot(m.Snapshot())
	if allocs := testing.AllocsPerRun(1000, func() {
		m.ReleaseSnapshot(m.Snapshot())
	}); allocs != 0 {
		t.Errorf("Snapshot+ReleaseSnapshot allocates %v times, want 0", allocs)
	}
}

// TestTrapErrorFormat pins Trap.Error to "trap %d at fn.bB.I (addr %#x)"
// byte for byte. Traps record the position and render it only in Error,
// so the string must come out the same however the trap was raised.
func TestTrapErrorFormat(t *testing.T) {
	m, fns := snapTestMachine(t)
	if got, want := m.trapHere(ir.TrapDivZero, 0).Error(),
		fmt.Sprintf("trap %d at %s (addr %#x)", ir.TrapDivZero, m.pcString(), 0); got != want {
		t.Errorf("main frame: %q, want %q", got, want)
	}
	if err := m.push(fns[3], nil, -1); err != nil {
		t.Fatal(err)
	}
	top := &m.frames[len(m.frames)-1]
	top.Blk, top.Idx = 1, 12
	for _, c := range []struct {
		code, addr int64
	}{
		{ir.TrapBadAccess, 0x6000_0040},
		{ir.TrapDomain, -8},
		{ir.TrapBadCall, 0},
		{ir.TrapAssert, 1 << 40},
	} {
		want := fmt.Sprintf("trap %d at %s.b%d.%d (addr %#x)", c.code, "f3", 1, 12, c.addr)
		if got := m.trapHere(c.code, c.addr).Error(); got != want {
			t.Errorf("trap %d: %q, want %q", c.code, got, want)
		}
	}
	// Free-form positions and the empty stack render as before.
	if got, want := (&Trap{Code: ir.TrapBadAccess, Addr: 0x40, PC: "stack overflow in f"}).Error(),
		fmt.Sprintf("trap %d at stack overflow in f (addr 0x40)", ir.TrapBadAccess); got != want {
		t.Errorf("free-form PC: %q, want %q", got, want)
	}
	m.frames = m.frames[:0]
	if got, want := m.trapHere(ir.TrapBadAccess, 0).Error(),
		fmt.Sprintf("trap %d at <no frame> (addr 0x0)", ir.TrapBadAccess); got != want {
		t.Errorf("no frame: %q, want %q", got, want)
	}
}
