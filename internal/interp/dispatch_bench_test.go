package interp_test

import (
	"testing"

	"github.com/firestarter-go/firestarter/internal/interp"
	"github.com/firestarter-go/firestarter/internal/ir"
	"github.com/firestarter-go/firestarter/internal/libsim"
	"github.com/firestarter-go/firestarter/internal/mem"
)

// buildHotLoop returns a program spinning an arithmetic loop over a
// global counter: a dispatch-bound shape (compare-and-branch,
// load-op-store, const-into-bin).
func buildHotLoop(iters int64) *ir.Program {
	p := ir.NewProgram()
	p.AddGlobal("g", 8, nil)
	f := &ir.Func{Name: "main", NumRegs: 8}
	b0 := f.NewBlock("entry")
	b0.Instrs = []ir.Instr{
		{Op: ir.OpGlobalAddr, Dst: 0, Name: "g"},
		{Op: ir.OpConst, Dst: 1, Imm: 0},
		{Op: ir.OpConst, Dst: 2, Imm: iters},
		{Op: ir.OpJmp, Then: 1},
	}
	b1 := f.NewBlock("head")
	b1.Instrs = []ir.Instr{
		{Op: ir.OpBin, Dst: 3, A: 1, B: 2, Bin: ir.BinLt},
		{Op: ir.OpBr, A: 3, Then: 2, Else: 3},
	}
	b2 := f.NewBlock("body")
	b2.Instrs = []ir.Instr{
		{Op: ir.OpConst, Dst: 6, Imm: 3},
		{Op: ir.OpLoad, Dst: 4, A: 0, Width: 8},
		{Op: ir.OpBin, Dst: 5, A: 4, B: 6, Bin: ir.BinAdd},
		{Op: ir.OpStore, A: 0, B: 5, Width: 8},
		{Op: ir.OpConst, Dst: 7, Imm: 1},
		{Op: ir.OpBin, Dst: 1, A: 1, B: 7, Bin: ir.BinAdd},
		{Op: ir.OpJmp, Then: 1},
	}
	b3 := f.NewBlock("exit")
	b3.Instrs = []ir.Instr{
		{Op: ir.OpLoad, Dst: 4, A: 0, Width: 8},
		{Op: ir.OpRet, A: 4},
	}
	p.AddFunc(f)
	return p
}

func BenchmarkDispatch(b *testing.B) {
	prog := buildHotLoop(200_000)
	if err := prog.Validate(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := interp.New(prog.Clone(), libsim.New(mem.NewSpace()), nil)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if out := m.Run(0); out.Kind != interp.OutExited {
			b.Fatalf("outcome %v", out.Kind)
		}
	}
}
