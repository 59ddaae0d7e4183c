package machine

import (
	"fssim/internal/isa"
	"fssim/internal/memsim"
)

// Cursor tracks the program counter of the current execution stream,
// including a return-address stack for Call/Ret. Each simulated thread owns a
// Cursor; the kernel swaps them on context switches so that instruction
// addresses — and therefore I-cache behavior — stay coherent per thread.
type Cursor struct {
	PC    uint64
	stack []uint64
}

// SwapCursor installs c as the active cursor and returns the previous one.
func (m *Machine) SwapCursor(c Cursor) Cursor {
	old := m.cursor
	m.cursor = c
	return old
}

// Cursor returns the active cursor (by value; useful for saving).
func (m *Machine) CursorState() Cursor { return m.cursor }

// CodeMap assigns stable simulated addresses to named functions, so that
// repeated executions of the same kernel or guest routine replay the same
// instruction addresses (I-cache locality) while distinct routines occupy
// distinct lines.
type CodeMap struct {
	next uint64
}

// NewCodeMap returns a code map allocating from base.
func NewCodeMap(base uint64) *CodeMap { return &CodeMap{next: base} }

// Fn reserves size bytes of code space and returns the entry address.
func (cm *CodeMap) Fn(size uint64) uint64 {
	pc := cm.next
	cm.next += (size + 63) &^ 63 // line-align entries
	return pc
}

// UserCodeBase and related constants place guest code at the classic i386
// text base, away from kernel text.
const (
	UserCodeBase   = memsim.UserTextBase
	KernelCodeBase = memsim.KernelText
)

// Emitter is the instruction-emission API used by kernel and guest code. All
// methods feed dynamic instructions to the machine with automatically
// maintained PCs.
type Emitter struct {
	m *Machine
}

// Emitter returns an emitter bound to the machine.
func (m *Machine) Emitter() Emitter { return Emitter{m: m} }

// Machine returns the underlying machine.
func (e Emitter) Machine() *Machine { return e.m }

// emit stages the instruction in the machine's scratch slot and executes
// it. Staging matters: Exec takes a pointer that flows into the cpu.Core
// interface, so a stack-local instruction would escape — one heap
// allocation per emitted instruction, which profiling showed was ~95% of
// all allocation in a detailed run. The machine consumes the instruction
// synchronously (reentrant emissions from device events rewrite the slot
// only after the outer Exec is done reading it), so the single scratch is
// safe.
// emit is cheap enough to inline into every helper, so the instruction
// literal is built directly in the scratch slot with no stack intermediate.
func (e Emitter) emit(in isa.Inst) {
	e.m.inst = in
	e.m.execStaged()
}

// skip fast-forwards a helper's run of n instructions when the machine is
// emulating an OS service, and returns the index of the first instruction
// the helper must still emit itself (0 on the detailed path, which pays only
// this check). start is a loop run's start PC.
func (e Emitter) skip(sh *runShape, start uint64, n int) int {
	if e.m.emulating && e.m.inInterval && e.m.depth > 0 {
		return e.m.fastForward(sh, start, n)
	}
	return 0
}

// The shapes of the helpers' runs (see runShape). Emulation observes only
// the instruction count and the load/store/branch mix, so Ops, Chain, Mix
// and FOps share one straight-line shape.
var (
	straightRun   = runShape{period: 1}
	copyLinesRun  = runShape{period: 4, loads: 1 << 1, stores: 1 << 2, branches: 1 << 3, loop: true}
	scanLinesRun  = runShape{period: 4, loads: 1 << 1, branches: 1 << 3, loop: true}
	writeLinesRun = runShape{period: 3, stores: 1 << 1, branches: 1 << 2, loop: true}
	chaseListRun  = runShape{period: 3, loads: 1 << 0, branches: 1 << 2, loop: true}
)

// Ops emits n independent single-cycle integer operations.
func (e Emitter) Ops(n int) {
	for i := e.skip(&straightRun, 0, n); i < n; i++ {
		e.emit(isa.Inst{Op: isa.ALU})
	}
}

// Chain emits n serially dependent integer operations (a dependence chain,
// e.g. an address calculation or reduction).
func (e Emitter) Chain(n int) {
	for i := e.skip(&straightRun, 0, n); i < n; i++ {
		e.emit(isa.Inst{Op: isa.ALU, Dep: 1})
	}
}

// Mix emits n instructions with a typical integer-code shape: mostly ALU with
// scattered short dependence chains and an occasional multiply — the filler
// between the memory operations that dominate timing.
func (e Emitter) Mix(n int) {
	for i := e.skip(&straightRun, 0, n); i < n; i++ {
		switch i & 7 {
		case 3:
			e.emit(isa.Inst{Op: isa.ALU, Dep: 1})
		case 5:
			e.emit(isa.Inst{Op: isa.ALU, Dep: 2})
		case 7:
			e.emit(isa.Inst{Op: isa.MUL})
		default:
			e.emit(isa.Inst{Op: isa.ALU})
		}
	}
}

// FOps emits n floating-point operations with moderate dependence.
func (e Emitter) FOps(n int) {
	for i := e.skip(&straightRun, 0, n); i < n; i++ {
		if i&3 == 3 {
			e.emit(isa.Inst{Op: isa.FPU, Dep: 1})
		} else {
			e.emit(isa.Inst{Op: isa.FPU})
		}
	}
}

// Div emits one integer divide.
func (e Emitter) Div() { e.emit(isa.Inst{Op: isa.DIV, Dep: 1}) }

// FDiv emits one floating-point divide.
func (e Emitter) FDiv() { e.emit(isa.Inst{Op: isa.FDIV, Dep: 1}) }

// Load emits a load of size bytes from addr. dep gives the dependence
// distance of the address computation (0 = address ready immediately).
func (e Emitter) Load(addr uint64, size int, dep uint8) {
	e.emit(isa.Inst{Op: isa.LOAD, Addr: addr, Size: uint8(size), Dep: dep})
}

// Store emits a store of size bytes to addr.
func (e Emitter) Store(addr uint64, size int) {
	e.emit(isa.Inst{Op: isa.STORE, Addr: addr, Size: uint8(size)})
}

// Branch emits a conditional branch with the given actual outcome; target is
// the actual destination when taken.
func (e Emitter) Branch(taken bool, target uint64) {
	e.emit(isa.Inst{Op: isa.BRANCH, Taken: taken, Target: target})
	if taken {
		e.m.cursor.PC = target
	}
}

// Syscall emits the trapping instruction that begins a system call (executed
// in user mode; the kernel's dispatcher then calls KEnter).
func (e Emitter) Syscall() { e.emit(isa.Inst{Op: isa.SYSCALL}) }

// Iret emits the return-from-kernel instruction (executed in kernel mode as
// the final instruction of a service interval).
func (e Emitter) Iret() { e.emit(isa.Inst{Op: isa.IRET}) }

// Call transfers control to the function at pc, pushing the return address.
func (e Emitter) Call(pc uint64) {
	e.m.cursor.stack = append(e.m.cursor.stack, e.m.cursor.PC+4)
	e.emit(isa.Inst{Op: isa.BRANCH, Taken: true, Target: pc})
	e.m.cursor.PC = pc
}

// Ret returns from the most recent Call.
func (e Emitter) Ret() {
	st := e.m.cursor.stack
	if len(st) == 0 {
		e.emit(isa.Inst{Op: isa.BRANCH, Taken: true, Target: e.m.cursor.PC})
		return
	}
	target := st[len(st)-1]
	e.m.cursor.stack = st[:len(st)-1]
	e.emit(isa.Inst{Op: isa.BRANCH, Taken: true, Target: target})
	e.m.cursor.PC = target
}

// Loop runs body iters times with a backward branch per iteration, replaying
// the same instruction addresses each time (so the body enjoys I-cache
// locality like a real loop).
func (e Emitter) Loop(iters int, body func(i int)) {
	if iters <= 0 {
		return
	}
	start := e.m.cursor.PC
	for i := 0; i < iters; i++ {
		e.m.cursor.PC = start
		body(i)
		e.Branch(i < iters-1, start)
		if i < iters-1 {
			// Branch() moved the cursor back to start; the loop resets it
			// anyway. Restore fallthrough PC bookkeeping for the final exit.
			e.m.cursor.PC = start
		}
	}
}

// The loop helpers below unroll Loop's iteration by hand — reset the cursor
// to start, emit the body, then the back-branch — so that they can resume at
// any position of an iteration, where fastForward stopped.

// CopyLines models a memcpy of n cache lines from src to dst: per line, an
// induction update, a load, a store, and the loop branch. Successive lines
// are independent (addresses come from the induction variable), so the
// out-of-order core overlaps their misses the way real memcpy does.
func (e Emitter) CopyLines(dst, src uint64, n int) {
	start := e.m.cursor.PC
	j := e.skip(&copyLinesRun, start, 4*n)
	for i, k := j/4, j%4; i < n; i, k = i+1, 0 {
		off := uint64(i) * 64
		switch k {
		case 0:
			e.m.cursor.PC = start
			e.emit(isa.Inst{Op: isa.ALU, Dep: 4})
			fallthrough
		case 1:
			e.Load(src+off, 64, 1)
			fallthrough
		case 2:
			e.Store(dst+off, 64)
			fallthrough
		default:
			e.Branch(i < n-1, start)
		}
	}
}

// ScanLines models a read sweep over n lines starting at addr with the given
// stride: per line, an index update, an independent load, a consuming op,
// and the branch.
func (e Emitter) ScanLines(addr uint64, n int, stride uint64) {
	if stride == 0 {
		stride = 64
	}
	start := e.m.cursor.PC
	j := e.skip(&scanLinesRun, start, 4*n)
	for i, k := j/4, j%4; i < n; i, k = i+1, 0 {
		switch k {
		case 0:
			e.m.cursor.PC = start
			e.emit(isa.Inst{Op: isa.ALU, Dep: 4})
			fallthrough
		case 1:
			e.Load(addr+uint64(i)*stride, 8, 1)
			fallthrough
		case 2:
			e.emit(isa.Inst{Op: isa.ALU, Dep: 1})
			fallthrough
		default:
			e.Branch(i < n-1, start)
		}
	}
}

// WriteLines models a write sweep (e.g. zeroing a page) over n lines.
func (e Emitter) WriteLines(addr uint64, n int, stride uint64) {
	if stride == 0 {
		stride = 64
	}
	start := e.m.cursor.PC
	j := e.skip(&writeLinesRun, start, 3*n)
	for i, k := j/3, j%3; i < n; i, k = i+1, 0 {
		switch k {
		case 0:
			e.m.cursor.PC = start
			e.emit(isa.Inst{Op: isa.ALU, Dep: 3})
			fallthrough
		case 1:
			e.Store(addr+uint64(i)*stride, 64)
			fallthrough
		default:
			e.Branch(i < n-1, start)
		}
	}
}

// ChaseList models dependent pointer chasing through the given node
// addresses (hash-chain walks, dentry lookups, run-queue scans): each load's
// address depends on the previous load's result, so the walk serializes at
// the memory latency. Each iteration emits [LOAD, ALU, BRANCH]; the next
// iteration's load therefore names the producer three instructions back.
func (e Emitter) ChaseList(nodes []uint64) {
	start := e.m.cursor.PC
	n := len(nodes)
	j := e.skip(&chaseListRun, start, 3*n)
	for i, k := j/3, j%3; i < n; i, k = i+1, 0 {
		switch k {
		case 0:
			e.m.cursor.PC = start
			dep := uint8(3) // the previous iteration's load
			if i == 0 {
				dep = 0 // head pointer is already in a register
			}
			e.Load(nodes[i], 8, dep)
			fallthrough
		case 1:
			e.emit(isa.Inst{Op: isa.ALU, Dep: 1})
			fallthrough
		default:
			e.Branch(i < n-1, start)
		}
		e.m.cursor.PC = start
	}
	if n > 0 {
		e.m.cursor.PC = start + 12
	}
}
