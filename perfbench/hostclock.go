package main

import (
	"time"

	"fssim/internal/isa"
	"fssim/internal/machine"
	"fssim/internal/trace"
	"fssim/internal/workload"
)

// hostClock splits a simulation's host time by simulation mode. It reads the
// clock only at interval boundaries, through the machine's public hooks: an
// always-detailed AppSink brackets every application interval, the Observer
// closes every OS interval, and in Accelerated mode a forwarding IntervalSink
// times the learner calls it forwards.
//
// Both modes split time the same way. An OS interval runs from the previous
// boundary to the Observer call that closes it, less the learner time inside
// it; "other" is the stretch before each application interval and before the
// first and after the last interval. FullSystem mode has no IntervalSink, so
// nothing marks where an OS interval opens; charging the stretch before
// OnServiceStart to the OS interval in Accelerated mode too keeps
// os_detailed comparable between the modes.
//
// Attaching it changes no simulated result: the AppSink asks for detailed
// simulation (what the machine does without one) and the forwarding sink
// returns exactly what the wrapped sink returns.
type hostClock struct {
	last    time.Time     // the previous boundary
	pending time.Duration // learner time since the previous boundary

	appDetailed, osDetailed, osEmulated, learner, other      time.Duration
	appInsts, osDetailedInsts, osEmulatedInsts, learnerCalls uint64
}

// span returns the time since the previous boundary and moves the boundary to
// now.
func (c *hostClock) span() time.Duration {
	now := time.Now()
	d := now.Sub(c.last)
	c.last = now
	return d
}

// attach installs the clock's hooks on opts. Call it after opts.Sink is set.
func (c *hostClock) attach(opts *workload.Options) {
	if opts.Sink != nil {
		opts.Sink = &timingSink{inner: opts.Sink, clk: c}
	}
	opts.Sample = appClock{c}
	opts.Observer = c.observe
}

// begin marks the start of a run; the time until the first interval (workload
// construction) counts as other.
func (c *hostClock) begin() { c.last = time.Now() }

// end closes the run's last stretch as other.
func (c *hostClock) end() { c.other += c.span() }

// observe closes an OS interval, which opened at the previous boundary;
// learner time inside it is not OS simulation.
func (c *hostClock) observe(rec machine.IntervalRecord) {
	d := c.span() - c.pending
	c.pending = 0
	if rec.Emulated {
		c.osEmulated += d
		c.osEmulatedInsts += rec.Insts
	} else {
		c.osDetailed += d
		c.osDetailedInsts += rec.Insts
	}
}

// learn times one call into the learner. The time is subtracted from the OS
// interval that the next observe closes.
func (c *hostClock) learn(f func()) {
	d := timed(f)
	c.learner += d
	c.pending += d
}

// appClock is the always-detailed AppSink half of hostClock.
type appClock struct{ c *hostClock }

func (a appClock) OnAppStart() (bool, float64) {
	a.c.other += a.c.span()
	return true, 0
}

func (a appClock) OnAppEnd(_ machine.Signature, meas *machine.Measurement) *machine.Prediction {
	a.c.appDetailed += a.c.span()
	if meas != nil {
		a.c.appInsts += meas.Insts
	}
	return nil
}

// timingSink forwards every IntervalSink call, and every optional hook
// workload.Run looks for, to the wrapped acceleration engine.
type timingSink struct {
	inner machine.IntervalSink
	clk   *hostClock
}

func (t *timingSink) OnServiceStart(svc isa.ServiceID) (bool, float64) {
	var detailed bool
	var cpi float64
	t.clk.learn(func() { detailed, cpi = t.inner.OnServiceStart(svc) })
	return detailed, cpi
}

func (t *timingSink) OnServiceEnd(svc isa.ServiceID, sig machine.Signature, meas *machine.Measurement) *machine.Prediction {
	var p *machine.Prediction
	t.clk.learn(func() { p = t.inner.OnServiceEnd(svc, sig, meas) })
	t.clk.learnerCalls++
	return p
}

// Defer, Arm and SetRecorder forward the warm-up protocol and the trace
// recorder. workload.Run finds them by interface assertion, so a wrapper
// without them would silently change an accelerated run's results.
func (t *timingSink) Defer() {
	if d, ok := t.inner.(interface{ Defer() }); ok {
		d.Defer()
	}
}

func (t *timingSink) Arm() {
	if a, ok := t.inner.(interface{ Arm() }); ok {
		a.Arm()
	}
}

func (t *timingSink) SetRecorder(r *trace.Recorder) {
	if s, ok := t.inner.(interface{ SetRecorder(*trace.Recorder) }); ok {
		s.SetRecorder(r)
	}
}
