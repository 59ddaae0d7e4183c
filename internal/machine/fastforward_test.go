package machine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fssim/internal/isa"
)

// refEmitter keeps the fixed-shape helper bodies as they were before
// fastForward, verbatim: every instruction goes through emit, execStaged and
// Exec. FuzzFastForwardMatchesExec drives it on one machine and Emitter on a
// twin and requires identical observable state. The singleton helpers (Load,
// Store, Branch, Call, Ret) and Loop are shared with Emitter; they always
// emitted one instruction at a time.
type refEmitter struct{ Emitter }

func (e refEmitter) Ops(n int) {
	for i := 0; i < n; i++ {
		e.emit(isa.Inst{Op: isa.ALU})
	}
}

func (e refEmitter) Chain(n int) {
	for i := 0; i < n; i++ {
		e.emit(isa.Inst{Op: isa.ALU, Dep: 1})
	}
}

func (e refEmitter) Mix(n int) {
	for i := 0; i < n; i++ {
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

func (e refEmitter) FOps(n int) {
	for i := 0; i < n; i++ {
		if i&3 == 3 {
			e.emit(isa.Inst{Op: isa.FPU, Dep: 1})
		} else {
			e.emit(isa.Inst{Op: isa.FPU})
		}
	}
}

func (e refEmitter) CopyLines(dst, src uint64, n int) {
	e.Loop(n, func(i int) {
		off := uint64(i) * 64
		e.emit(isa.Inst{Op: isa.ALU, Dep: 4})
		e.Load(src+off, 64, 1)
		e.Store(dst+off, 64)
	})
}

func (e refEmitter) ScanLines(addr uint64, n int, stride uint64) {
	if stride == 0 {
		stride = 64
	}
	e.Loop(n, func(i int) {
		e.emit(isa.Inst{Op: isa.ALU, Dep: 4})
		e.Load(addr+uint64(i)*stride, 8, 1)
		e.emit(isa.Inst{Op: isa.ALU, Dep: 1})
	})
}

func (e refEmitter) WriteLines(addr uint64, n int, stride uint64) {
	if stride == 0 {
		stride = 64
	}
	e.Loop(n, func(i int) {
		e.emit(isa.Inst{Op: isa.ALU, Dep: 3})
		e.Store(addr+uint64(i)*stride, 64)
	})
}

func (e refEmitter) ChaseList(nodes []uint64) {
	start := e.m.cursor.PC
	for i, a := range nodes {
		e.m.cursor.PC = start
		dep := uint8(3) // the previous iteration's load
		if i == 0 {
			dep = 0 // head pointer is already in a register
		}
		e.Load(a, 8, dep)
		e.emit(isa.Inst{Op: isa.ALU, Dep: 1})
		e.Branch(i < len(nodes)-1, start)
		e.m.cursor.PC = start
	}
	if len(nodes) > 0 {
		e.m.cursor.PC = start + 12
	}
}

// helperSet is the emission API both twins expose.
type helperSet interface {
	Ops(n int)
	Chain(n int)
	Mix(n int)
	FOps(n int)
	CopyLines(dst, src uint64, n int)
	ScanLines(addr uint64, n int, stride uint64)
	WriteLines(addr uint64, n int, stride uint64)
	ChaseList(nodes []uint64)
	Load(addr uint64, size int, dep uint8)
	Store(addr uint64, size int)
	Branch(taken bool, target uint64)
	Call(pc uint64)
	Ret()
}

// altSink decides each interval from a fuzzed 8-bit pattern, so detailed and
// emulated intervals alternate, and hands out estimated CPIs from a table
// whose large entries flush the virtual clock every few instructions.
type altSink struct {
	pattern uint8
	calls   int
	pred    Prediction
}

var ffCPIs = [...]float64{1.3, 0.4, 7.9, 41, 230, 1}

func (s *altSink) OnServiceStart(svc isa.ServiceID) (bool, float64) {
	s.calls++
	return s.pattern>>(s.calls%8)&1 != 0, ffCPIs[s.calls%len(ffCPIs)]
}

func (s *altSink) OnServiceEnd(svc isa.ServiceID, sig Signature, meas *Measurement) *Prediction {
	if meas != nil {
		return nil
	}
	s.pred = Prediction{
		Cycles:    sig.Insts*2 + sig.Loads*30 + sig.Stores*7 + sig.Branches,
		L1DMisses: sig.Loads / 4,
		L2Misses:  sig.Stores / 8,
	}
	return &s.pred
}

// ffRec is an IntervalRecord with its scratch pointers copied out.
type ffRec struct {
	rec  IntervalRecord
	pred Prediction
	meas Measurement
}

// ffFire is one event delivery as a handler saw it.
type ffFire struct {
	id, now, insts, pc uint64
	depth              int
}

// ffRig is one twin: a machine, its emitter, and what was observed on it.
type ffRig struct {
	m     *Machine
	e     helperSet
	op    EventOp
	recs  []ffRec
	fires []ffFire
	// checked counts the records and fires ffDiff has already compared.
	checkedRecs, checkedFires int
}

// Event handler kinds, carried in the event's first payload word (low byte;
// the rest is the event id). The second word parameterizes the body.
const (
	evIRQ    = iota // interrupt-style body: KEnter, Call, Ops/Mix, Ret, KExit
	evFlip          // scheduler-dispatch-style mode flip: close, then reopen
	evUser          // dispatch to user mode (closes the interval)
	evKernel        // dispatch a kernel-blocked context (may open one)
	evSwitch        // a thread switch and back, running the other thread's user code
	evChain         // schedule another event, already due
	evTick          // an interrupt-style body that re-arms itself b>>6 times
	numEvKinds
)

func newFFRig(ref bool, core CoreKind, pattern uint8) *ffRig {
	cfg := DefaultConfig()
	cfg.Mode = Accelerated
	cfg.Core = core
	r := &ffRig{m: New(cfg)}
	r.m.SetSink(&altSink{pattern: pattern})
	if ref {
		r.e = refEmitter{r.m.Emitter()}
	} else {
		r.e = r.m.Emitter()
	}
	r.m.SetObserver(func(rec IntervalRecord) {
		c := ffRec{rec: rec}
		if rec.Predicted != nil {
			c.pred, c.rec.Predicted = *rec.Predicted, nil
		}
		if rec.Meas != nil {
			c.meas, c.rec.Meas = *rec.Meas, nil
		}
		r.recs = append(r.recs, c)
	})
	r.op = r.m.RegisterOp(r.handle)
	return r
}

func (r *ffRig) handle(a, b uint64) {
	m, e := r.m, r.e
	r.fires = append(r.fires, ffFire{id: a, now: m.Now(), insts: m.totalInsts,
		pc: m.cursor.PC, depth: m.depth})
	n := int(b % 97)
	switch a & 0xff {
	case evIRQ:
		m.KEnter(isa.Irq(uint16(b % 3)))
		e.Call(KernelCodeBase + 0x4000 + (b%5)*64)
		if b&1 == 0 {
			e.Ops(n)
		} else {
			e.Mix(n)
		}
		e.Ret()
		m.KExit()
	case evFlip:
		if m.depth > 0 {
			d := m.depth
			m.SetDepth(0, isa.ServiceID{})
			m.SetDepth(d, isa.Sys(uint16(b%7)))
		}
	case evUser:
		m.SetDepth(0, isa.ServiceID{})
	case evKernel:
		m.SetDepth(1+int(b%2), isa.Sys(uint16(b%7)))
	case evSwitch:
		d := m.depth
		old := m.SwapCursor(Cursor{PC: UserCodeBase + 0x8000})
		m.SetDepth(0, isa.ServiceID{})
		e.Chain(n)
		m.SetDepth(d, isa.Sys(uint16(b%7)))
		m.SwapCursor(old)
	case evChain:
		m.ScheduleOp(m.Now(), r.op, a&^0xff|evIRQ, b)
	case evTick:
		if b >= 64 {
			m.ScheduleOp(m.Now()+1+b%64, r.op, a, b-64)
		}
		m.KEnter(isa.Irq(isa.IrqTimer))
		e.Call(KernelCodeBase + 0x6000)
		e.Ops(int(b % 5))
		e.Ret()
		m.KExit()
	}
}

// step applies one fuzz command to the rig. It reports false once the
// machine has aborted.
func (r *ffRig) step(cmd, x, y, z byte, id uint64) (live bool) {
	m, e := r.m, r.e
	live = true
	n := (int(x)<<8 | int(y)) % 301
	base := 0x10_0000 + uint64(z)<<12
	switch cmd % 17 {
	case 0:
		e.Ops(n)
	case 1:
		e.Chain(n)
	case 2:
		e.Mix(n)
	case 3:
		e.FOps(n)
	case 4:
		e.CopyLines(base+0x80_0000, base, n)
	case 5:
		e.ScanLines(base, n, uint64(z%3)*64)
	case 6:
		e.WriteLines(base, n, uint64(z%3)*64)
	case 7:
		nodes := make([]uint64, n)
		for i := range nodes {
			nodes[i] = base + uint64(i*i%257)*64
		}
		e.ChaseList(nodes)
	case 8:
		m.KEnter(isa.Sys(uint16(z % 7)))
	case 9:
		if m.depth > 0 {
			m.KExit()
		}
	case 10, 11:
		// An event inside the next runs: often already due, sometimes past.
		at := m.Now() + uint64(x)*uint64(y%8)
		if z%5 == 0 && m.Now() > 0 {
			at = m.Now() - 1
		}
		m.ScheduleOp(at, r.op, id<<8|uint64(z)%numEvKinds, uint64(y)|uint64(x)<<8)
	case 12:
		m.SetDepth(int(z%3), isa.Sys(uint16(x%7)))
	case 13:
		// Straddle a cancellation-poll boundary: pad to a few instructions
		// short of the next multiple of 256, then run a loop across it.
		short := int(x % 9)
		if pad := (256 - int(m.totalInsts&255) - short) & 255; pad > 0 {
			e.Ops(pad)
		}
		e.CopyLines(base+0x80_0000, base, 2+int(y%6))
	case 14:
		if x&1 == 0 {
			e.Call(KernelCodeBase + uint64(y)*64)
		} else {
			e.Ret()
		}
	case 15:
		if z%8 != 0 {
			e.Mix(n)
			break
		}
		// Cancel, then run until the next poll aborts the run.
		m.Cancel(nil)
		defer func() {
			if v := recover(); v != nil {
				if _, ok := v.(*AbortError); !ok {
					panic(v)
				}
			}
			live = false
		}()
		for i := 0; i < 256; i++ {
			e.CopyLines(base+0x80_0000, base, n+1)
		}
		panic("canceled run polled no cancellation in 256 runs")
	default:
		switch x % 3 {
		case 0:
			e.Load(base, 8, 0)
		case 1:
			e.Store(base, 8)
		default:
			e.Branch(y&1 == 0, KernelCodeBase+uint64(z)*64)
		}
	}
	return live
}

// ffDiff reports the first observable difference between the twins, or "".
func ffDiff(a, b *ffRig) string {
	ma, mb := a.m, b.m
	switch {
	case ma.cursor.PC != mb.cursor.PC || len(ma.cursor.stack) != len(mb.cursor.stack):
		return fmt.Sprintf("cursor %#x/%d vs %#x/%d", ma.cursor.PC, len(ma.cursor.stack),
			mb.cursor.PC, len(mb.cursor.stack))
	case ma.Stats() != mb.Stats():
		return fmt.Sprintf("stats\n%+v\nvs\n%+v", ma.Stats(), mb.Stats())
	case ma.curSig != mb.curSig || ma.emuInsts != mb.emuInsts || ma.virtFrac != mb.virtFrac ||
		ma.depth != mb.depth || ma.emulating != mb.emulating || ma.inInterval != mb.inInterval:
		return fmt.Sprintf("interval state sig=%+v emu=%d frac=%v depth=%d emulating=%v vs "+
			"sig=%+v emu=%d frac=%v depth=%d emulating=%v", ma.curSig, ma.emuInsts, ma.virtFrac,
			ma.depth, ma.emulating, mb.curSig, mb.emuInsts, mb.virtFrac, mb.depth, mb.emulating)
	case !slices.Equal(a.recs[a.checkedRecs:], b.recs[a.checkedRecs:]):
		return fmt.Sprintf("interval records\n%+v\nvs\n%+v", a.recs[a.checkedRecs:], b.recs[a.checkedRecs:])
	case !slices.Equal(a.fires[a.checkedFires:], b.fires[a.checkedFires:]):
		return fmt.Sprintf("event fires\n%+v\nvs\n%+v", a.fires[a.checkedFires:], b.fires[a.checkedFires:])
	}
	a.checkedRecs, a.checkedFires = len(a.recs), len(a.fires)
	return ""
}

// runFastForwardTwins drives the command stream through Emitter on one
// machine and refEmitter on its twin, comparing after every command, and
// returns the fast-forwarding twin for coverage checks.
func runFastForwardTwins(t *testing.T, data []byte) *ffRig {
	if len(data) < 2 {
		return nil
	}
	core := CoreOOO
	if data[0]&1 != 0 {
		core = CoreInOrder
	}
	got, want := newFFRig(false, core, data[1]), newFFRig(true, core, data[1])
	data = data[2:]
	for i := 0; i+3 < len(data) && i < 4*400; i += 4 {
		id := uint64(i/4 + 1)
		liveGot := got.step(data[i], data[i+1], data[i+2], data[i+3], id)
		liveWant := want.step(data[i], data[i+1], data[i+2], data[i+3], id)
		if d := ffDiff(got, want); d != "" {
			t.Fatalf("command %d (% x): fast-forward differs from Exec: %s", i/4, data[i:i+4], d)
		}
		if !liveGot || !liveWant {
			break
		}
	}
	return got
}

// ffSeeds is the fuzz target's seed corpus: random command streams, each
// opening a kernel interval first so that most of them fast-forward.
func ffSeeds() [][]byte {
	rng := rand.New(rand.NewSource(14))
	seeds := make([][]byte, 48)
	for i := range seeds {
		data := make([]byte, 2+4*(40+rng.Intn(80)))
		rng.Read(data)
		copy(data[2:], []byte{8, 0, 0, byte(i)})
		seeds[i] = data
	}
	return seeds
}

// FuzzFastForwardMatchesExec is the differential oracle for fastForward:
// random sequences of every fixed-shape helper (n up to 300), kernel
// entries and exits, interrupt-style events that move the cursor, events
// that flip the machine between emulated and detailed mid-run the way
// scheduler dispatch does, re-arming ticks, cancellations and
// 256-instruction poll-boundary straddles must leave the fast-forwarding
// machine and the per-instruction reference identical after every command:
// cursor, Stats, interval records with signatures, and every event's fire
// cycle.
func FuzzFastForwardMatchesExec(f *testing.F) {
	for _, data := range ffSeeds() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runFastForwardTwins(t, data)
	})
}

// TestFastForwardCoverage checks that the fuzz seeds exercise what the
// oracle is for: fast-forwarded instructions, events firing inside
// emulated runs, intervals of both kinds, and canceled runs.
func TestFastForwardCoverage(t *testing.T) {
	var emu, fires, detailed, emulated, aborted uint64
	for _, data := range ffSeeds() {
		r := runFastForwardTwins(t, data)
		st := r.m.Stats()
		emu += st.EmuInsts
		emulated += st.Emulated
		detailed += st.Intervals - st.Emulated
		fires += uint64(len(r.fires))
		if r.m.Canceled() != nil {
			aborted++
		}
	}
	t.Logf("fast-forwarded %d instructions, %d events, %d emulated / %d detailed intervals, %d aborted",
		emu, fires, emulated, detailed, aborted)
	if emu < 100_000 || fires < 1000 || emulated < 100 || detailed < 100 || aborted == 0 {
		t.Fatalf("seeds under-exercise the oracle: emu=%d fires=%d emulated=%d detailed=%d aborted=%d",
			emu, fires, emulated, detailed, aborted)
	}
}

// TestFastForwardResumesDetailedMidIteration pins the mode-flip path: an
// event inside an emulated CopyLines closes the interval and reopens a
// detailed one, so the helper must finish the same iteration, from the
// exact instruction, in the timing model.
func TestFastForwardResumesDetailedMidIteration(t *testing.T) {
	// Pattern: the first interval is emulated, the second detailed.
	got, want := newFFRig(false, CoreOOO, 0b100), newFFRig(true, CoreOOO, 0b100)
	for _, r := range []*ffRig{got, want} {
		r.m.KEnter(isa.Sys(isa.SysRead))
		if !r.m.emulating {
			t.Fatal("first interval should be emulated")
		}
		// Already due, so it fires after the run's first instruction.
		r.m.ScheduleOp(r.m.Now(), r.op, evFlip, 3)
		r.e.CopyLines(0x90_0000, 0xA0_0000, 50)
		if r.m.emulating {
			t.Fatal("the flip should have reopened a detailed interval")
		}
	}
	if d := ffDiff(got, want); d != "" {
		t.Fatal(d)
	}
	if len(got.fires) != 1 || got.fires[0].insts != 1 {
		t.Fatalf("flip fired %+v, want once after the first instruction", got.fires)
	}
	// Only the first ALU was fast-forwarded; the first iteration's load and
	// store and the other 49 iterations ran in the timing model.
	st := got.m.Stats()
	if st.Insts != 200 || st.EmuInsts != 1 || st.Mem.L1D.Accesses == 0 {
		t.Fatalf("insts=%d emulated=%d L1D accesses=%d, want 200, 1, >0",
			st.Insts, st.EmuInsts, st.Mem.L1D.Accesses)
	}
}
