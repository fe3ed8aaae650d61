package interp

import (
	"errors"

	"github.com/firestarter-go/firestarter/internal/bytecode"
	"github.com/firestarter-go/firestarter/internal/ir"
	"github.com/firestarter-go/firestarter/internal/mem"
)

// Backend is the machine's execution-strategy seam: Run must be
// observationally identical to the tree-walking interpreter (same
// outcomes, Cycles, Steps, runtime events, profiler events and trap
// positions, in the same order). The machine delegates Run to the
// installed backend; nil means the tree-walker.
type Backend interface {
	// Name identifies the backend ("tree", "bytecode").
	Name() string
	// Run executes like Machine.Run.
	Run(m *Machine, maxSteps int64) Outcome
}

// TickCoalescer is an optional Runtime capability: TickLive reports
// whether Tick currently has an effect. A backend may skip per-
// instruction Tick calls (and the program-counter bookkeeping that feeds
// them) while TickLive is false, re-checking after every event that can
// change transaction state. Runtimes without this capability are ticked
// on every instruction, exactly like the tree-walker.
type TickCoalescer interface {
	TickLive() bool
}

// TickBatcher is an optional extension of TickCoalescer: TickBudget
// reports how many upcoming per-instruction ticks are guaranteed to be
// observation-free — pure interrupt-countdown decrements that cannot
// abort, deliver a pending doom, or otherwise change machine-visible
// state. A backend may defer that many ticks and apply them in one
// batched Tick(n) call, provided deferred ticks are flushed before every
// runtime interaction (which may change transaction state) and before
// returning, and the budget is re-queried after every delivered tick.
type TickBatcher interface {
	TickCoalescer
	TickBudget() int64
}

// SetBackend installs an execution backend (nil restores the tree-walker).
func (m *Machine) SetBackend(b Backend) { m.backend = b }

// BackendName names the machine's active execution strategy.
func (m *Machine) BackendName() string {
	if m.backend == nil {
		return "tree"
	}
	return m.backend.Name()
}

// NewBytecodeBackend compiles prog and returns a backend executing its
// bytecode. Machines running a different program instance fall back to
// the tree-walker; programs must not be mutated after compilation.
func NewBytecodeBackend(prog *ir.Program) (Backend, error) {
	bp, err := bytecode.Compile(prog)
	if err != nil {
		return nil, err
	}
	return &bytecodeBackend{prog: bp}, nil
}

// UseBytecode compiles the machine's program and installs the bytecode
// backend on it.
func UseBytecode(m *Machine) error {
	b, err := NewBytecodeBackend(m.Prog)
	if err != nil {
		return err
	}
	m.SetBackend(b)
	return nil
}

type bytecodeBackend struct {
	prog *bytecode.Program
}

// Name implements Backend.
func (b *bytecodeBackend) Name() string { return "bytecode" }

// fail routes an execution error through the runtime, mirroring the tail
// of the tree-walker's Run loop. done=false means ActionContinue: the
// machine was restored to a consistent position and the caller must
// re-derive its position (continue the resync loop). Frame coordinates
// must be synced to the faulting instruction before calling (trap PC
// strings are user-visible).
func (b *bytecodeBackend) fail(m *Machine, err error, co TickCoalescer, tickLive *bool) (Outcome, bool) {
	switch m.RT.Handle(m, err) {
	case ActionContinue:
		*tickLive = co == nil || co.TickLive()
		return Outcome{}, false
	case ActionBlock:
		return Outcome{Kind: OutBlocked}, true
	default:
		var trap *Trap
		if !errors.As(err, &trap) {
			trap = m.trapHere(ir.TrapBadAccess, 0)
			if ae := (*mem.AccessError)(nil); errors.As(err, &ae) {
				trap.Addr = ae.Addr
			}
			if de := (*mem.DomainError)(nil); errors.As(err, &de) {
				trap.Code, trap.Addr = ir.TrapDomain, de.Addr
			}
		}
		m.exited = true
		return Outcome{Kind: OutTrapped, Code: trap.Code, Trap: trap}, true
	}
}

// treeStep runs one full tree-walker iteration (budget, step, tick,
// handle) — the fallback for positions that are not bytecode boundaries:
// a resume in the middle of a fused superinstruction, or a function the
// compiled program does not know. done=true carries a finished outcome.
func (b *bytecodeBackend) treeStep(m *Machine, limited bool, co TickCoalescer, tickLive *bool) (Outcome, bool) {
	if limited {
		if m.budget <= 0 {
			return Outcome{Kind: OutStepLimit}, true
		}
		m.budget--
	}
	m.Steps++
	err := m.step()
	if err == nil {
		*tickLive = co == nil || co.TickLive()
		if *tickLive {
			if terr := m.RT.Tick(m, 1); terr != nil {
				err = terr
			}
		}
	}
	if err == nil {
		return Outcome{}, false
	}
	return b.fail(m, err, co, tickLive)
}

// Run implements Backend. The executor retires source instructions with
// the tree-walker's exact accounting — one budget unit, one Steps
// increment, one cost charge and one runtime Tick per source instruction,
// in the same order — while dispatching over the flat fused stream.
//
// Frame positions stay in source (block, index) coordinates so snapshots
// interoperate with the tree-walker. While ticks are live the coordinates
// are kept exact around every delivered tick; while the runtime reports
// ticks dead (TickCoalescer) they are allowed to go stale between
// runtime-visible events, and are re-synced before every runtime call,
// trap, snapshot, budget stop and Run return.
//
// Tick batching: when the runtime implements TickBatcher, ticks inside
// the guaranteed observation-free budget are deferred (`pending` counts
// retired-but-unticked instructions, `tickGas` the remaining budget) and
// applied in one Tick(n) at the next runtime interaction or at the tick
// that may observe something. A batched flush cannot abort by
// construction, so the stale coordinates it runs under are unobservable.
// `pending` is always zero when the resync loop re-enters and when Run
// returns; `tickGas` is conservatively re-queried after every resync.
func (b *bytecodeBackend) Run(m *Machine, maxSteps int64) Outcome {
	if m.Prog != b.prog.Src {
		// Compiled for a different program instance: run the reference
		// interpreter rather than risk divergence.
		return m.runTree(maxSteps)
	}
	if m.exited {
		return Outcome{Kind: OutExited, Code: m.exitCode}
	}
	limited := maxSteps > 0
	m.budget = 0
	if limited {
		m.budget = maxSteps
	}
	co, _ := m.RT.(TickCoalescer)
	batcher, _ := m.RT.(TickBatcher)
	tickLive := co == nil || co.TickLive()
	var pending, tickGas int64

resync:
	for {
		// Transaction state may have changed on any path that lands here;
		// the deferral budget must be re-derived before more ticks defer.
		tickGas = 0
		if m.exited {
			return Outcome{Kind: OutExited, Code: m.exitCode}
		}
		f := &m.frames[len(m.frames)-1]
		code := b.prog.Code(f.Fn)
		var pc int
		aligned := false
		if code != nil {
			pc, aligned = code.PCAt(f.Blk, f.Idx)
		}
		if !aligned {
			// Mid-superinstruction resume (or an unknown function):
			// retire source instructions until we are back on a boundary.
			out, done := b.treeStep(m, limited, co, &tickLive)
			if done {
				return out
			}
			continue resync
		}
		insts := code.Insts
		regs := f.Regs

		for {
			in := &insts[pc]
			if limited {
				if m.budget <= 0 {
					f.Blk, f.Idx = in.Blk, in.Idx
					if pending > 0 {
						terr := m.RT.Tick(m, pending)
						pending = 0
						if terr != nil {
							out, done := b.fail(m, terr, co, &tickLive)
							if done {
								return out
							}
							continue resync
						}
					}
					return Outcome{Kind: OutStepLimit}
				}
				m.budget--
			}
			m.Steps++
			if in.BlockStart && m.BlockHook != nil {
				m.BlockHook(f.Fn.Name, in.Blk)
			}

			switch in.Op {
			case bytecode.OpConst:
				regs[in.Dst] = in.Imm
				m.Cycles += CostSimple
				pc++

			case bytecode.OpMov:
				regs[in.Dst] = regs[in.A]
				m.Cycles += CostSimple
				pc++

			case bytecode.OpBin:
				v, ok := in.Bin.Eval(regs[in.A], regs[in.B])
				if !ok {
					f.Blk, f.Idx = in.Blk, in.Idx
					if pending > 0 {
						terr := m.RT.Tick(m, pending)
						pending = 0
						if terr != nil {
							out, done := b.fail(m, terr, co, &tickLive)
							if done {
								return out
							}
							continue resync
						}
					}
					out, done := b.fail(m, m.trapHere(ir.TrapDivZero, 0), co, &tickLive)
					if done {
						return out
					}
					continue resync
				}
				regs[in.Dst] = v
				m.Cycles += CostSimple
				pc++

			case bytecode.OpNeg:
				regs[in.Dst] = -regs[in.A]
				m.Cycles += CostSimple
				pc++

			case bytecode.OpNot:
				if regs[in.A] == 0 {
					regs[in.Dst] = 1
				} else {
					regs[in.Dst] = 0
				}
				m.Cycles += CostSimple
				pc++

			case bytecode.OpLoad:
				// Flush deferred ticks: the routed load may touch
				// transaction state (read-set tracking, conflicts).
				if pending > 0 {
					terr := m.RT.Tick(m, pending)
					pending = 0
					if terr != nil {
						f.Blk, f.Idx = in.Blk, in.Idx
						out, done := b.fail(m, terr, co, &tickLive)
						if done {
							return out
						}
						continue resync
					}
				}
				addr := regs[in.A] + in.Imm
				v, err := m.RT.Load(m, addr, in.Width)
				if err != nil {
					f.Blk, f.Idx = in.Blk, in.Idx
					if errors.Is(err, mem.ErrUnmapped) {
						err = m.trapHere(ir.TrapBadAccess, addr)
					} else if errors.Is(err, mem.ErrDomain) {
						err = m.trapHere(ir.TrapDomain, addr)
					}
					out, done := b.fail(m, err, co, &tickLive)
					if done {
						return out
					}
					continue resync
				}
				regs[in.Dst] = v
				m.Cycles += CostMem
				pc++

			case bytecode.OpStore, bytecode.OpStmStore:
				// Flush deferred ticks: the routed store may abort the
				// transaction (capacity), which must observe the same
				// countdown the tree-walker would have applied.
				if pending > 0 {
					terr := m.RT.Tick(m, pending)
					pending = 0
					if terr != nil {
						f.Blk, f.Idx = in.Blk, in.Idx
						out, done := b.fail(m, terr, co, &tickLive)
						if done {
							return out
						}
						continue resync
					}
				}
				m.Cycles += CostMem
				addr := regs[in.A] + in.Imm
				if err := m.RT.Store(m, addr, regs[in.B], in.Width, in.Op == bytecode.OpStmStore); err != nil {
					f.Blk, f.Idx = in.Blk, in.Idx
					out, done := b.fail(m, m.storeError(err, addr), co, &tickLive)
					if done {
						return out
					}
					continue resync
				}
				pc++

			case bytecode.OpFrameAddr:
				regs[in.Dst] = f.FP + in.Imm
				m.Cycles += CostSimple
				pc++

			case bytecode.OpGlobalAddr:
				regs[in.Dst] = in.Imm
				m.Cycles += CostSimple
				pc++

			case bytecode.OpJmp:
				m.Cycles += CostSimple
				pc = in.Then

			case bytecode.OpBr:
				m.Cycles += CostSimple
				if regs[in.A] != 0 {
					pc = in.Then
				} else {
					pc = in.Else
				}

			case bytecode.OpCmpBr:
				// Component 1: the compare.
				v, ok := in.Bin.Eval(regs[in.A], regs[in.B])
				if !ok {
					// Unreachable (div/rem never fuse); kept for safety.
					f.Blk, f.Idx = in.Blk, in.Idx
					if pending > 0 {
						terr := m.RT.Tick(m, pending)
						pending = 0
						if terr != nil {
							out, done := b.fail(m, terr, co, &tickLive)
							if done {
								return out
							}
							continue resync
						}
					}
					out, done := b.fail(m, m.trapHere(ir.TrapDivZero, 0), co, &tickLive)
					if done {
						return out
					}
					continue resync
				}
				regs[in.Dst] = v
				m.Cycles += CostSimple
				if tickLive {
					if tickGas > 0 {
						tickGas--
						pending++
					} else {
						f.Blk, f.Idx = in.Blk, in.Idx+1
						terr := m.RT.Tick(m, pending+1)
						pending = 0
						if terr != nil {
							out, done := b.fail(m, terr, co, &tickLive)
							if done {
								return out
							}
							continue resync
						}
						if batcher != nil {
							tickGas = batcher.TickBudget()
						}
					}
				}
				if limited {
					if m.budget <= 0 {
						f.Blk, f.Idx = in.Blk, in.Idx+1
						if pending > 0 {
							terr := m.RT.Tick(m, pending)
							pending = 0
							if terr != nil {
								out, done := b.fail(m, terr, co, &tickLive)
								if done {
									return out
								}
								continue resync
							}
						}
						return Outcome{Kind: OutStepLimit}
					}
					m.budget--
				}
				m.Steps++
				// Component 2: the branch.
				m.Cycles += CostSimple
				if v != 0 {
					pc = in.Then
				} else {
					pc = in.Else
				}

			case bytecode.OpConstBin:
				// Component 1: the constant.
				regs[in.C] = in.Imm
				m.Cycles += CostSimple
				if tickLive {
					if tickGas > 0 {
						tickGas--
						pending++
					} else {
						f.Blk, f.Idx = in.Blk, in.Idx+1
						terr := m.RT.Tick(m, pending+1)
						pending = 0
						if terr != nil {
							out, done := b.fail(m, terr, co, &tickLive)
							if done {
								return out
							}
							continue resync
						}
						if batcher != nil {
							tickGas = batcher.TickBudget()
						}
					}
				}
				if limited {
					if m.budget <= 0 {
						f.Blk, f.Idx = in.Blk, in.Idx+1
						if pending > 0 {
							terr := m.RT.Tick(m, pending)
							pending = 0
							if terr != nil {
								out, done := b.fail(m, terr, co, &tickLive)
								if done {
									return out
								}
								continue resync
							}
						}
						return Outcome{Kind: OutStepLimit}
					}
					m.budget--
				}
				m.Steps++
				// Component 2: the bin.
				v, ok := in.Bin.Eval(regs[in.A], regs[in.B])
				if !ok {
					// Unreachable (div/rem never fuse); kept for safety.
					f.Blk, f.Idx = in.Blk, in.Idx+1
					if pending > 0 {
						terr := m.RT.Tick(m, pending)
						pending = 0
						if terr != nil {
							out, done := b.fail(m, terr, co, &tickLive)
							if done {
								return out
							}
							continue resync
						}
					}
					out, done := b.fail(m, m.trapHere(ir.TrapDivZero, 0), co, &tickLive)
					if done {
						return out
					}
					continue resync
				}
				regs[in.Dst] = v
				m.Cycles += CostSimple
				pc++

			case bytecode.OpLoadBinStore:
				// Component 1: the load (flush deferred ticks first, as
				// for OpLoad).
				if pending > 0 {
					terr := m.RT.Tick(m, pending)
					pending = 0
					if terr != nil {
						f.Blk, f.Idx = in.Blk, in.Idx
						out, done := b.fail(m, terr, co, &tickLive)
						if done {
							return out
						}
						continue resync
					}
				}
				addr := regs[in.A] + in.Imm
				v, err := m.RT.Load(m, addr, in.Width)
				if err != nil {
					f.Blk, f.Idx = in.Blk, in.Idx
					if errors.Is(err, mem.ErrUnmapped) {
						err = m.trapHere(ir.TrapBadAccess, addr)
					} else if errors.Is(err, mem.ErrDomain) {
						err = m.trapHere(ir.TrapDomain, addr)
					}
					out, done := b.fail(m, err, co, &tickLive)
					if done {
						return out
					}
					continue resync
				}
				regs[in.Dst] = v
				m.Cycles += CostMem
				if tickLive {
					if tickGas > 0 {
						tickGas--
						pending++
					} else {
						f.Blk, f.Idx = in.Blk, in.Idx+1
						terr := m.RT.Tick(m, pending+1)
						pending = 0
						if terr != nil {
							out, done := b.fail(m, terr, co, &tickLive)
							if done {
								return out
							}
							continue resync
						}
						if batcher != nil {
							tickGas = batcher.TickBudget()
						}
					}
				}
				if limited {
					if m.budget <= 0 {
						f.Blk, f.Idx = in.Blk, in.Idx+1
						if pending > 0 {
							terr := m.RT.Tick(m, pending)
							pending = 0
							if terr != nil {
								out, done := b.fail(m, terr, co, &tickLive)
								if done {
									return out
								}
								continue resync
							}
						}
						return Outcome{Kind: OutStepLimit}
					}
					m.budget--
				}
				m.Steps++
				// Component 2: the bin.
				bv, ok := in.Bin.Eval(regs[in.C], regs[in.D])
				if !ok {
					// Unreachable (div/rem never fuse); kept for safety.
					f.Blk, f.Idx = in.Blk, in.Idx+1
					if pending > 0 {
						terr := m.RT.Tick(m, pending)
						pending = 0
						if terr != nil {
							out, done := b.fail(m, terr, co, &tickLive)
							if done {
								return out
							}
							continue resync
						}
					}
					out, done := b.fail(m, m.trapHere(ir.TrapDivZero, 0), co, &tickLive)
					if done {
						return out
					}
					continue resync
				}
				regs[in.B] = bv
				m.Cycles += CostSimple
				if tickLive {
					if tickGas > 0 {
						tickGas--
						pending++
					} else {
						f.Blk, f.Idx = in.Blk, in.Idx+2
						terr := m.RT.Tick(m, pending+1)
						pending = 0
						if terr != nil {
							out, done := b.fail(m, terr, co, &tickLive)
							if done {
								return out
							}
							continue resync
						}
						if batcher != nil {
							tickGas = batcher.TickBudget()
						}
					}
				}
				if limited {
					if m.budget <= 0 {
						f.Blk, f.Idx = in.Blk, in.Idx+2
						if pending > 0 {
							terr := m.RT.Tick(m, pending)
							pending = 0
							if terr != nil {
								out, done := b.fail(m, terr, co, &tickLive)
								if done {
									return out
								}
								continue resync
							}
						}
						return Outcome{Kind: OutStepLimit}
					}
					m.budget--
				}
				m.Steps++
				// Component 3: the store. The address register is re-read
				// (the bin may have clobbered it); deferred ticks flush
				// first, as for OpStore.
				if pending > 0 {
					terr := m.RT.Tick(m, pending)
					pending = 0
					if terr != nil {
						f.Blk, f.Idx = in.Blk, in.Idx+2
						out, done := b.fail(m, terr, co, &tickLive)
						if done {
							return out
						}
						continue resync
					}
				}
				m.Cycles += CostMem
				saddr := regs[in.A] + in.Imm
				if err := m.RT.Store(m, saddr, regs[in.B], in.Width, in.Stm); err != nil {
					f.Blk, f.Idx = in.Blk, in.Idx+2
					out, done := b.fail(m, m.storeError(err, saddr), co, &tickLive)
					if done {
						return out
					}
					continue resync
				}
				pc++

			case bytecode.OpCall:
				args := m.marshalArgs(code.Args(in), regs)
				m.Cycles += CostCall
				f.Blk, f.Idx = in.Blk, in.Idx+1 // return address
				if err := m.push(code.Callee(in), args, in.Dst); err != nil {
					f.Idx = in.Idx
					if pending > 0 {
						terr := m.RT.Tick(m, pending)
						pending = 0
						if terr != nil {
							out, done := b.fail(m, terr, co, &tickLive)
							if done {
								return out
							}
							continue resync
						}
					}
					out, done := b.fail(m, err, co, &tickLive)
					if done {
						return out
					}
					continue resync
				}
				f = &m.frames[len(m.frames)-1]
				regs = f.Regs
				code = code.CalleeCode(in)
				insts = code.Insts
				pc = code.EntryPC(f.Blk)

			case bytecode.OpLib:
				f.Blk, f.Idx = in.Blk, in.Idx
				if pending > 0 {
					terr := m.RT.Tick(m, pending)
					pending = 0
					if terr != nil {
						out, done := b.fail(m, terr, co, &tickLive)
						if done {
							return out
						}
						continue resync
					}
				}
				args := m.marshalArgs(code.Args(in), regs)
				name := code.Name(in)
				c0 := m.Cycles
				m.Cycles += CostLibBase
				ret, err := m.RT.LibCall(m, name, args, in.Site)
				if m.prof != nil {
					m.prof.Lib(name, in.Site, c0, m.Cycles, m.Steps)
				}
				if err != nil {
					out, done := b.fail(m, err, co, &tickLive)
					if done {
						return out
					}
					continue resync
				}
				// The runtime may have restored a snapshot during the
				// call; write the result through the refetched frame and
				// let the resync loop re-derive the position.
				f = &m.frames[len(m.frames)-1]
				if in.Dst >= 0 {
					f.Regs[in.Dst] = ret
				}
				f.Idx++
				tickLive = co == nil || co.TickLive()
				if tickLive {
					if terr := m.RT.Tick(m, 1); terr != nil {
						out, done := b.fail(m, terr, co, &tickLive)
						if done {
							return out
						}
					}
				}
				continue resync

			case bytecode.OpRet:
				f.Blk, f.Idx = in.Blk, in.Idx
				if pending > 0 {
					terr := m.RT.Tick(m, pending)
					pending = 0
					if terr != nil {
						out, done := b.fail(m, terr, co, &tickLive)
						if done {
							return out
						}
						continue resync
					}
				}
				m.Cycles += CostSimple
				err := m.doReturn(code.Src(in))
				if err != nil {
					out, done := b.fail(m, err, co, &tickLive)
					if done {
						return out
					}
					continue resync
				}
				// A bottom-frame return commits the pending transaction
				// (and a non-bottom one may flow-switch variants): refresh
				// liveness before the tick.
				tickLive = co == nil || co.TickLive()
				if tickLive {
					if terr := m.RT.Tick(m, 1); terr != nil {
						out, done := b.fail(m, terr, co, &tickLive)
						if done {
							return out
						}
					}
				}
				continue resync

			case bytecode.OpTrap:
				f.Blk, f.Idx = in.Blk, in.Idx
				if pending > 0 {
					terr := m.RT.Tick(m, pending)
					pending = 0
					if terr != nil {
						out, done := b.fail(m, terr, co, &tickLive)
						if done {
							return out
						}
						continue resync
					}
				}
				out, done := b.fail(m, m.trapHere(in.Imm, 0), co, &tickLive)
				if done {
					return out
				}
				continue resync

			case bytecode.OpTxBegin:
				f.Blk, f.Idx = in.Blk, in.Idx
				if pending > 0 {
					terr := m.RT.Tick(m, pending)
					pending = 0
					if terr != nil {
						out, done := b.fail(m, terr, co, &tickLive)
						if done {
							return out
						}
						continue resync
					}
				}
				if err := m.RT.TxBegin(m, in.Site, in.Imm); err != nil {
					out, done := b.fail(m, err, co, &tickLive)
					if done {
						return out
					}
					continue resync
				}
				f = &m.frames[len(m.frames)-1]
				f.Idx++
				tickLive = co == nil || co.TickLive()
				if tickLive {
					if terr := m.RT.Tick(m, 1); terr != nil {
						out, done := b.fail(m, terr, co, &tickLive)
						if done {
							return out
						}
					}
				}
				continue resync

			case bytecode.OpTxEnd:
				f.Blk, f.Idx = in.Blk, in.Idx
				if pending > 0 {
					terr := m.RT.Tick(m, pending)
					pending = 0
					if terr != nil {
						out, done := b.fail(m, terr, co, &tickLive)
						if done {
							return out
						}
						continue resync
					}
				}
				if err := m.RT.TxEnd(m); err != nil {
					out, done := b.fail(m, err, co, &tickLive)
					if done {
						return out
					}
					continue resync
				}
				f = &m.frames[len(m.frames)-1]
				f.Idx++
				tickLive = co == nil || co.TickLive()
				if tickLive {
					if terr := m.RT.Tick(m, 1); terr != nil {
						out, done := b.fail(m, terr, co, &tickLive)
						if done {
							return out
						}
					}
				}
				continue resync

			case bytecode.OpRegSave:
				f.Blk, f.Idx = in.Blk, in.Idx
				if pending > 0 {
					terr := m.RT.Tick(m, pending)
					pending = 0
					if terr != nil {
						out, done := b.fail(m, terr, co, &tickLive)
						if done {
							return out
						}
						continue resync
					}
				}
				m.RT.RegSave(m)
				f.Idx++
				if tickLive {
					if terr := m.RT.Tick(m, 1); terr != nil {
						out, done := b.fail(m, terr, co, &tickLive)
						if done {
							return out
						}
					}
				}
				continue resync

			case bytecode.OpGate:
				f.Blk, f.Idx = in.Blk, in.Idx
				if pending > 0 {
					terr := m.RT.Tick(m, pending)
					pending = 0
					if terr != nil {
						out, done := b.fail(m, terr, co, &tickLive)
						if done {
							return out
						}
						continue resync
					}
				}
				if err := m.doGate(code.Src(in)); err != nil {
					out, done := b.fail(m, err, co, &tickLive)
					if done {
						return out
					}
					continue resync
				}
				tickLive = co == nil || co.TickLive()
				if tickLive {
					if terr := m.RT.Tick(m, 1); terr != nil {
						out, done := b.fail(m, terr, co, &tickLive)
						if done {
							return out
						}
					}
				}
				continue resync

			default:
				f.Blk, f.Idx = in.Blk, in.Idx
				if pending > 0 {
					terr := m.RT.Tick(m, pending)
					pending = 0
					if terr != nil {
						out, done := b.fail(m, terr, co, &tickLive)
						if done {
							return out
						}
						continue resync
					}
				}
				out, done := b.fail(m, m.trapHere(ir.TrapBadCall, 0), co, &tickLive)
				if done {
					return out
				}
				continue resync
			}

			// Common tick tail for straight-line ops, branches and calls:
			// pc has advanced and the instruction retires against the
			// interrupt model — deferred while the batching budget lasts,
			// delivered (with the frame position synced) when the next
			// tick may observe something.
			if tickLive {
				if tickGas > 0 {
					tickGas--
					pending++
				} else {
					nin := &insts[pc]
					f.Blk, f.Idx = nin.Blk, nin.Idx
					terr := m.RT.Tick(m, pending+1)
					pending = 0
					if terr != nil {
						out, done := b.fail(m, terr, co, &tickLive)
						if done {
							return out
						}
						continue resync
					}
					if batcher != nil {
						tickGas = batcher.TickBudget()
					}
				}
			}
		}
	}
}
