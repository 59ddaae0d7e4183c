package main

import (
	"reflect"
	"testing"

	"fssim/internal/core"
	"fssim/internal/machine"
	"fssim/internal/trace"
	"fssim/internal/workload"
)

// TestTimingSinkForwardsAcceleratorHooks: workload.Run discovers an
// acceleration engine's warm-up protocol and recorder hook by interface
// assertion, so the forwarding sink must offer every hook *core.Accelerator
// offers. Any method without results is such a hook candidate; the
// IntervalSink methods are covered by the interface itself.
func TestTimingSinkForwardsAcceleratorHooks(t *testing.T) {
	var _ machine.IntervalSink = (*timingSink)(nil)
	for _, hook := range []reflect.Type{
		reflect.TypeOf((*interface{ Defer() })(nil)).Elem(),
		reflect.TypeOf((*interface{ Arm() })(nil)).Elem(),
		reflect.TypeOf((*interface{ SetRecorder(*trace.Recorder) })(nil)).Elem(),
	} {
		if !reflect.TypeOf((*core.Accelerator)(nil)).Implements(hook) {
			t.Errorf("*core.Accelerator no longer implements %v; update this list", hook)
		}
	}
	acc := reflect.TypeOf((*core.Accelerator)(nil))
	ts := reflect.TypeOf((*timingSink)(nil))
	for i := 0; i < acc.NumMethod(); i++ {
		m := acc.Method(i)
		if m.Type.NumOut() != 0 {
			continue
		}
		got, ok := ts.MethodByName(m.Name)
		if !ok {
			t.Errorf("timingSink lacks %s%v, which *core.Accelerator has", m.Name, m.Type)
			continue
		}
		// Compare signatures without the receiver.
		if got.Type.NumIn() != m.Type.NumIn() {
			t.Errorf("timingSink.%s has %v, *core.Accelerator %v", m.Name, got.Type, m.Type)
			continue
		}
		for j := 1; j < m.Type.NumIn(); j++ {
			if got.Type.In(j) != m.Type.In(j) {
				t.Errorf("timingSink.%s has %v, *core.Accelerator %v", m.Name, got.Type, m.Type)
			}
		}
	}
}

// TestHostClockLeavesResultsUnchanged runs a benchmark with a warm-up phase in
// both timed modes, with and without the clock attached.
func TestHostClockLeavesResultsUnchanged(t *testing.T) {
	for _, mode := range []machine.SimMode{machine.FullSystem, machine.Accelerated} {
		run := func(clk *hostClock) machine.Stats {
			opts := workload.DefaultOptions()
			opts.Scale = 0.1
			opts.Machine.Mode = mode
			if mode == machine.Accelerated {
				opts.Sink = core.NewAccelerator(core.DefaultParams())
			}
			if clk != nil {
				clk.attach(&opts)
				clk.begin()
			}
			res, err := workload.Run("ab-rand", opts)
			if err != nil {
				t.Fatal(err)
			}
			if clk != nil {
				clk.end()
			}
			return res.Stats
		}
		clk := &hostClock{}
		plain, traced := run(nil), run(clk)
		if plain != traced {
			t.Errorf("%s: traced stats differ:\n plain  %+v\n traced %+v", mode, plain, traced)
		}
		if clk.osDetailedInsts == 0 || clk.appInsts == 0 {
			t.Errorf("%s: clock saw no intervals: %+v", mode, clk)
		}
		if mode == machine.Accelerated && (clk.osEmulatedInsts == 0 || clk.learnerCalls == 0) {
			t.Errorf("%s: clock saw no emulated intervals or learner calls: %+v", mode, clk)
		}
	}
}
