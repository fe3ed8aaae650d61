package interp_test

import (
	"fmt"
	"testing"

	"github.com/firestarter-go/firestarter/internal/interp"
	"github.com/firestarter-go/firestarter/internal/ir"
	"github.com/firestarter-go/firestarter/internal/libsim"
	"github.com/firestarter-go/firestarter/internal/mem"
)

// scriptRT is a scripted runtime recording the exact sequence of events
// the machine delivers — the machine↔runtime contract in isolation.
type scriptRT struct {
	interp.Direct
	events  []string
	variant int64
	inject  bool
}

func (s *scriptRT) LibCall(m *interp.Machine, name string, args []int64, site int) (int64, error) {
	s.events = append(s.events, fmt.Sprintf("lib:%s@%d", name, site))
	return m.OS.Call(name, args)
}

func (s *scriptRT) Gate(m *interp.Machine, site int, snap *interp.Snapshot) (int64, bool, int64) {
	s.events = append(s.events, fmt.Sprintf("gate:%d", site))
	if snap == nil {
		s.events = append(s.events, "gate:nil-snapshot")
	}
	if s.inject {
		return ir.TxSTM, true, -99
	}
	return s.variant, false, 0
}

func (s *scriptRT) TxBegin(m *interp.Machine, site int, variant int64) error {
	s.events = append(s.events, fmt.Sprintf("txbegin:%d:%d", site, variant))
	return nil
}

func (s *scriptRT) TxEnd(m *interp.Machine) error {
	s.events = append(s.events, "txend")
	return nil
}

func (s *scriptRT) Store(m *interp.Machine, addr, val int64, width int, stm bool) error {
	s.events = append(s.events, fmt.Sprintf("store:stm=%v", stm))
	return m.Space.Store(addr, val, width)
}

func (s *scriptRT) RegSave(m *interp.Machine) {
	s.events = append(s.events, "regsave")
}

func (s *scriptRT) Variant() int64 { return s.variant }

// buildGateProgram hand-assembles the instrumented shape the transform
// pass emits: txend + libcall + gate, HTM/STM continuation clones.
func buildGateProgram(t *testing.T) *ir.Program {
	t.Helper()
	p := ir.NewProgram()
	p.AddGlobal("g", 8, nil)
	f := &ir.Func{Name: "main", NumRegs: 4}

	b0 := f.NewBlock("entry") // txend, lib, gate
	b0.Instrs = []ir.Instr{
		{Op: ir.OpTxEnd},
		{Op: ir.OpLib, Dst: 0, Name: "getpid", Site: 1},
		{Op: ir.OpGate, Site: 1, Dst: 0, Then: 1, Else: 2},
	}
	b1 := f.NewBlock("cont") // HTM clone
	b1.Variant = ir.TxHTM
	b1.Counterpart = 2
	b1.Instrs = []ir.Instr{
		{Op: ir.OpRegSave},
		{Op: ir.OpTxBegin, Site: 1, Imm: ir.TxHTM},
		{Op: ir.OpGlobalAddr, Dst: 1, Name: "g"},
		{Op: ir.OpStore, A: 1, B: 0, Width: 8},
		{Op: ir.OpTxEnd},
		{Op: ir.OpRet, A: 0},
	}
	b2 := f.NewBlock("cont.stm") // STM clone
	b2.Variant = ir.TxSTM
	b2.Counterpart = 1
	b2.Instrs = []ir.Instr{
		{Op: ir.OpRegSave},
		{Op: ir.OpTxBegin, Site: 1, Imm: ir.TxSTM},
		{Op: ir.OpGlobalAddr, Dst: 1, Name: "g"},
		{Op: ir.OpStmStore, A: 1, B: 0, Width: 8},
		{Op: ir.OpTxEnd},
		{Op: ir.OpRet, A: 0},
	}
	f.Cloned = true
	f.EntryHTM = 0
	f.EntrySTM = 0
	p.AddFunc(f)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func runScripted(t *testing.T, rt *scriptRT) *interp.Machine {
	t.Helper()
	prog := buildGateProgram(t)
	o := libsim.New(mem.NewSpace())
	m, err := interp.New(prog, o, rt)
	if err != nil {
		t.Fatal(err)
	}
	out := m.Run(1000)
	if out.Kind != interp.OutExited {
		t.Fatalf("outcome = %v", out.Kind)
	}
	return m
}

func TestMachineDeliversHTMSequence(t *testing.T) {
	rt := &scriptRT{variant: ir.TxHTM}
	m := runScripted(t, rt)
	// The final txend is the machine's commit-pending-transaction-at-exit.
	want := []string{
		"txend", "lib:getpid@1", "gate:1",
		"regsave", "txbegin:1:1", "store:stm=false", "txend", "txend",
	}
	assertEvents(t, rt.events, want)
	if m.ExitCode() != m.OS.Pid() {
		t.Errorf("exit = %d, want pid %d", m.ExitCode(), m.OS.Pid())
	}
}

func TestMachineDeliversSTMSequence(t *testing.T) {
	rt := &scriptRT{variant: ir.TxSTM}
	runScripted(t, rt)
	want := []string{
		"txend", "lib:getpid@1", "gate:1",
		"regsave", "txbegin:1:2", "store:stm=true", "txend", "txend",
	}
	assertEvents(t, rt.events, want)
}

func TestGateInjectionOverwritesReturnRegister(t *testing.T) {
	rt := &scriptRT{variant: ir.TxHTM, inject: true}
	m := runScripted(t, rt)
	// The gate returned inject=-99 and variant STM: the STM clone runs
	// and the libcall's register carries the injected value to ret.
	if m.ExitCode() != -99 {
		t.Fatalf("exit = %d, want injected -99", m.ExitCode())
	}
	assertEvents(t, rt.events, []string{
		"txend", "lib:getpid@1", "gate:1",
		"regsave", "txbegin:1:2", "store:stm=true", "txend", "txend",
	})
	// And the injected value was stored to the global through the tx.
	v, err := m.Space.Load(m.GlobalAddr("g"), 8)
	if err != nil || v != -99 {
		t.Fatalf("global = %d, %v", v, err)
	}
}

func assertEvents(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("events = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %q, want %q (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestMachineAccessors(t *testing.T) {
	prog := buildGateProgram(t)
	o := libsim.New(mem.NewSpace())
	m, err := interp.New(prog, o, &scriptRT{variant: ir.TxHTM})
	if err != nil {
		t.Fatal(err)
	}
	if m.Exited() {
		t.Error("Exited before run")
	}
	if m.Depth() != 1 {
		t.Errorf("Depth = %d, want 1", m.Depth())
	}
	if m.GlobalAddr("g") == 0 {
		t.Error("GlobalAddr(g) = 0")
	}
	if m.GlobalAddr("nope") != 0 {
		t.Error("GlobalAddr(nope) != 0")
	}
	m.Run(0)
	if !m.Exited() {
		t.Error("not Exited after run")
	}
	// Running an exited machine is a no-op returning the exit outcome.
	out := m.Run(0)
	if out.Kind != interp.OutExited {
		t.Errorf("re-run outcome = %v", out.Kind)
	}
}

func TestTrapErrorString(t *testing.T) {
	tr := &interp.Trap{Code: ir.TrapBadAccess, Addr: 0x40, PC: "f.b1.2"}
	s := tr.Error()
	if s == "" || len(s) < 10 {
		t.Errorf("Trap.Error() = %q", s)
	}
	for _, k := range []interp.OutcomeKind{interp.OutExited, interp.OutTrapped, interp.OutBlocked, interp.OutStepLimit, interp.OutcomeKind(42)} {
		if k.String() == "" {
			t.Errorf("OutcomeKind(%d).String() empty", k)
		}
	}
}

// TestNarrowAccessWidths exercises the 2- and 4-byte load/store paths the
// mini-C frontend never emits (it uses 1 and 8).
func TestNarrowAccessWidths(t *testing.T) {
	p := ir.NewProgram()
	p.AddGlobal("g", 16, nil)
	f := &ir.Func{Name: "main", NumRegs: 6}
	b := f.NewBlock("entry")
	b.Instrs = []ir.Instr{
		{Op: ir.OpGlobalAddr, Dst: 0, Name: "g"},
		{Op: ir.OpConst, Dst: 1, Imm: 0x12345678},
		{Op: ir.OpStore, A: 0, B: 1, Width: 4},
		{Op: ir.OpConst, Dst: 2, Imm: 0xBEEF},
		{Op: ir.OpStore, A: 0, B: 2, Imm: 8, Width: 2},
		{Op: ir.OpLoad, Dst: 3, A: 0, Width: 4},
		{Op: ir.OpLoad, Dst: 4, A: 0, Imm: 8, Width: 2},
		{Op: ir.OpBin, Dst: 5, A: 3, B: 4, Bin: ir.BinXor},
		{Op: ir.OpRet, A: 5},
	}
	p.AddFunc(f)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	o := libsim.New(mem.NewSpace())
	m, err := interp.New(p, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := m.Run(100)
	if out.Kind != interp.OutExited {
		t.Fatalf("outcome = %v", out.Kind)
	}
	if m.ExitCode() != 0x12345678^0xBEEF {
		t.Fatalf("exit = %#x", m.ExitCode())
	}
}

// tickCountRT is a scriptRT that also counts retired-instruction ticks.
type tickCountRT struct {
	scriptRT
	ticks int64
}

func (s *tickCountRT) Tick(m *interp.Machine) error {
	s.ticks++
	return nil
}

// TestRunQuantumInvariance: stopping and resuming Run at any instruction
// boundary is unobservable. The gate program, run in quanta of 1, 2, 3
// and 7 instructions, must deliver the same runtime events, the same tick
// count and the same steps, cycles and result as one uninterrupted Run,
// for each gate decision.
func TestRunQuantumInvariance(t *testing.T) {
	cases := []struct {
		name    string
		variant int64
		inject  bool
	}{
		{"htm", ir.TxHTM, false},
		{"stm", ir.TxSTM, false},
		{"inject", ir.TxHTM, true},
	}
	run := func(t *testing.T, rt *tickCountRT, quantum int64) *interp.Machine {
		t.Helper()
		m, err := interp.New(buildGateProgram(t), libsim.New(mem.NewSpace()), rt)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			out := m.Run(quantum)
			if out.Kind == interp.OutStepLimit {
				continue
			}
			if out.Kind != interp.OutExited {
				t.Fatalf("quantum %d: outcome %v", quantum, out.Kind)
			}
			return m
		}
		t.Fatalf("quantum %d: did not exit", quantum)
		return nil
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := &tickCountRT{scriptRT: scriptRT{variant: tc.variant, inject: tc.inject}}
			mr := run(t, ref, 1000)
			for _, q := range []int64{1, 2, 3, 7} {
				rt := &tickCountRT{scriptRT: scriptRT{variant: tc.variant, inject: tc.inject}}
				m := run(t, rt, q)
				assertEvents(t, rt.events, ref.events)
				if rt.ticks != ref.ticks || m.Steps != mr.Steps || m.Cycles != mr.Cycles || m.ExitCode() != mr.ExitCode() {
					t.Fatalf("quantum %d: ticks/steps/cycles/exit = %d/%d/%d/%d, want %d/%d/%d/%d", q,
						rt.ticks, m.Steps, m.Cycles, m.ExitCode(), ref.ticks, mr.Steps, mr.Cycles, mr.ExitCode())
				}
			}
		})
	}
}

// TestGateSingleStep single-steps the gate program under both variants:
// every Run(1) that stops on its budget retires exactly one instruction,
// the events delivered so far are always a prefix of those of one
// uninterrupted Run, and the final event stream, global and exit code
// match it.
func TestGateSingleStep(t *testing.T) {
	for _, variant := range []int64{ir.TxHTM, ir.TxSTM} {
		ref := &scriptRT{variant: variant}
		mr := runScripted(t, ref)

		rt := &scriptRT{variant: variant}
		m, err := interp.New(buildGateProgram(t), libsim.New(mem.NewSpace()), rt)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; ; i++ {
			if i == 1000 {
				t.Fatalf("variant %d: did not exit", variant)
			}
			before := m.Steps
			out := m.Run(1)
			if len(rt.events) > len(ref.events) {
				t.Fatalf("variant %d: events %v overrun reference %v", variant, rt.events, ref.events)
			}
			assertEvents(t, rt.events, ref.events[:len(rt.events)])
			if out.Kind != interp.OutStepLimit {
				if out.Kind != interp.OutExited {
					t.Fatalf("variant %d: outcome %v", variant, out.Kind)
				}
				break
			}
			if m.Steps != before+1 {
				t.Fatalf("variant %d: Run(1) retired %d instructions", variant, m.Steps-before)
			}
		}
		assertEvents(t, rt.events, ref.events)
		if m.Steps != mr.Steps || m.Cycles != mr.Cycles || m.ExitCode() != mr.ExitCode() {
			t.Fatalf("variant %d: steps/cycles/exit = %d/%d/%d, want %d/%d/%d", variant,
				m.Steps, m.Cycles, m.ExitCode(), mr.Steps, mr.Cycles, mr.ExitCode())
		}
		g, _ := m.Space.Load(m.GlobalAddr("g"), 8)
		gr, _ := mr.Space.Load(mr.GlobalAddr("g"), 8)
		if g != gr {
			t.Fatalf("variant %d: global g = %d, want %d", variant, g, gr)
		}
	}
}

// TestLoopProgramQuantumInvariance runs a compare-and-branch loop that
// updates a global through load-op-store (10 iterations of g += 3) in
// quanta of 1, 2, 3 and 7 instructions: each must exit with 30 and the
// steps and cycles of one uninterrupted Run.
func TestLoopProgramQuantumInvariance(t *testing.T) {
	newMachine := func() *interp.Machine {
		prog := buildHotLoop(10)
		if err := prog.Validate(); err != nil {
			t.Fatal(err)
		}
		m, err := interp.New(prog, libsim.New(mem.NewSpace()), nil)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ref := newMachine()
	if out := ref.Run(0); out.Kind != interp.OutExited || ref.ExitCode() != 30 {
		t.Fatalf("reference run: %v/%d, want exit 30", out.Kind, ref.ExitCode())
	}
	for _, quantum := range []int64{1, 2, 3, 7} {
		m := newMachine()
		for i := 0; ; i++ {
			if i == 10_000 {
				t.Fatalf("quantum %d: did not exit", quantum)
			}
			out := m.Run(quantum)
			if out.Kind == interp.OutStepLimit {
				continue
			}
			if out.Kind != interp.OutExited {
				t.Fatalf("quantum %d: outcome %v", quantum, out.Kind)
			}
			break
		}
		if m.ExitCode() != 30 || m.Steps != ref.Steps || m.Cycles != ref.Cycles {
			t.Fatalf("quantum %d: exit/steps/cycles = %d/%d/%d, want 30/%d/%d",
				quantum, m.ExitCode(), m.Steps, m.Cycles, ref.Steps, ref.Cycles)
		}
	}
}
