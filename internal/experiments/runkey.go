package experiments

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"

	"fssim/internal/core"
	"fssim/internal/faults"
	"fssim/internal/machine"
	"fssim/internal/pltstore"
	"fssim/internal/workload"
)

// RunKey identifies one distinct simulation in the harness's memo cache.
// Two experiment runners asking for the same key share a single simulation:
// the paper's baselines (full-system App+OS at the default L2, for example)
// are needed by fig1, fig2, fig8, fig9, fig10 and tab2, but are simulated
// exactly once per Scheduler.
//
// Keys are compared as values, so every constructor goes through Key, the
// one normalizer: equal runs must be equal keys.
type RunKey struct {
	Bench string
	Mode  machine.SimMode
	L2    int     // L2 size in bytes; 0 = the platform default (Key folds it)
	Scale float64 // workload size multiplier; Key folds 0 to 1.0
	Seed  int64   // the config's base seed (Key folds 0 to 1); the run's machine seed is derived
	// Strategy selects the re-learning policy of an Accelerated run.
	Strategy core.Strategy
	// Watchdog arms the divergence watchdog on an Accelerated run, so the
	// Outcome's Accel.Health() carries degradation signals.
	Watchdog bool
	// Faults names a faults.Named plan injected into the run ("" = none).
	// The plan is derived from the config's base Seed, not the per-run
	// machine seed, so every mode and strategy of one config experiences
	// the identical fault schedule and stays comparable.
	Faults string
	// Sample is the canonical sample.Spec string of the application-interval
	// stratified-sampling policy ("" = every app interval detailed). Callers
	// canonicalize via sample.Canonical so every spelling of one policy
	// shares a cache entry. Part of the key — sampled and unsampled runs
	// never share cache entries — but deliberately excluded from DeriveSeed:
	// a sampled run replays the exact workload trajectory of its unsampled
	// twin, so comparing the two measures pure estimator error, not
	// seed-to-seed variance.
	Sample string
	// Transfer is the canonical transfer.Spec directive for warm-starting
	// this run's PLT from a neighbor configuration ("" = cold start). Part
	// of the key — a transferred run and its cold twin never share cache
	// entries — but excluded from DeriveSeed for the same reason Sample is:
	// the transferred run must replay the byte-identical workload trajectory
	// of its cold twin so that any divergence is attributable purely to the
	// imported priors, not to seed-to-seed variance. The scheduler counts a
	// directive on a non-accelerated key as a rejection.
	Transfer string
}

// RunSpec is the name serving front-ends build requests under; it is the
// key itself, normalized by Key.
type RunSpec = RunKey

// Key returns the normalized memo-cache key: the platform-default L2 folds
// to 0, scale 0 to 1.0, seed 0 to 1, and the strategy and watchdog of a
// non-accelerated run to their zero values (they do not affect it).
func (k RunKey) Key() RunKey {
	if k.L2 == defaultL2() {
		k.L2 = 0
	}
	if k.Scale <= 0 {
		k.Scale = 1.0
	}
	if k.Seed == 0 {
		k.Seed = 1
	}
	if k.Mode != machine.Accelerated {
		k.Strategy, k.Watchdog = 0, false
	}
	return k
}

// opts is the option number String and DeriveSeed carry for Accelerated
// runs: the strategy as uint64(strategy)+1 in the low byte, and bit 8 for
// the watchdog; 0 for every other mode. Run ids, derived seeds and snapshot
// addresses are functions of it, so its encoding must not change.
func (k RunKey) opts() uint64 {
	if k.Mode != machine.Accelerated {
		return 0
	}
	o := uint64(k.Strategy) + 1
	if k.Watchdog {
		o |= 1 << 8
	}
	return o
}

// String renders the key compactly for notes and error messages.
func (k RunKey) String() string {
	s := fmt.Sprintf("%s/%s/L2=%d/scale=%g", k.Bench, k.Mode, k.L2, k.Scale)
	if o := k.opts(); o != 0 {
		s += fmt.Sprintf("/opts=%d", o)
	}
	if k.Faults != "" {
		s += "/faults=" + k.Faults
	}
	if k.Sample != "" {
		s += "/sample=" + k.Sample
	}
	if k.Transfer != "" {
		s += "/transfer=" + k.Transfer
	}
	return s
}

// DeriveSeed maps the base seed and the key's coordinates to the seed the
// run's machine uses. Deriving per-run seeds (rather than handing every run
// the same base seed) makes each simulation's randomness a pure function of
// what is being simulated, so results are independent of scheduling order
// and of which other experiments happen to share the cache.
func (k RunKey) DeriveSeed() int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d|%x|%d|%d",
		k.Bench, k.Mode, k.L2, math.Float64bits(k.Scale), k.Seed, k.opts())
	// Appended only for faulted keys so unfaulted runs keep the seeds (and
	// therefore the byte-identical tables) they had before fault injection
	// existed.
	if k.Faults != "" {
		fmt.Fprintf(h, "|faults=%s", k.Faults)
	}
	// k.Sample and k.Transfer are intentionally NOT hashed: the sampler only
	// decides which intervals are measured versus extrapolated, transfer only
	// seeds the learners' prior tables, and both variants must replay the
	// byte-identical workload trajectory of the plain run at the same
	// coordinates for error attribution to be meaningful.
	return positiveSeed(h.Sum64())
}

// AttemptSeed is the machine seed for the given retry attempt: attempt 0 is
// DeriveSeed itself (preserving established results); each retry derives a
// fresh seed so a failure tied to one random trajectory is not replayed
// verbatim. Still a pure function of (key, attempt) — retries are as
// deterministic as first attempts.
func (k RunKey) AttemptSeed(attempt int) int64 {
	if attempt <= 0 {
		return k.DeriveSeed()
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|retry=%d", k.DeriveSeed(), attempt)
	return positiveSeed(h.Sum64())
}

// positiveSeed turns a hash into a non-zero, non-negative seed.
func positiveSeed(h uint64) int64 {
	if s := int64(h &^ (1 << 63)); s != 0 {
		return s
	}
	return 1
}

// withFaults returns the key with the named fault plan applied.
func (k RunKey) withFaults(plan string) RunKey { k.Faults = plan; return k }

// withSample returns the key with the given canonical sampling spec applied.
func (k RunKey) withSample(spec string) RunKey { k.Sample = spec; return k }

// withTransfer returns the key with the given transfer directive applied.
func (k RunKey) withTransfer(spec string) RunKey { k.Transfer = spec; return k }

// machine is the machine configuration a run of key uses (with the first
// attempt's derived seed).
func (k RunKey) machine() machine.Config {
	mcfg := workload.DefaultOptions().Machine
	mcfg.Mode = k.Mode
	mcfg.Seed = k.DeriveSeed()
	if k.L2 > 0 {
		mcfg.Mem = mcfg.Mem.WithL2Size(k.L2)
	}
	return mcfg
}

// params is the acceleration parameter set an Accelerated key encodes.
func (k RunKey) params() core.Params {
	params := core.DefaultParams()
	params.Strategy = k.Strategy
	if k.Watchdog {
		params.WatchdogThreshold = core.DefaultWatchdogThreshold
		params.WatchdogWindow = core.DefaultWatchdogWindow
	}
	return params
}

// identity is the warm-store identity of key: the snapshot address reflects
// the exact configuration that would be simulated. The transfer directive
// is part of the address: a transferred run's learned table is shaped by
// the imported priors and must never be mistaken for (or overwrite) the
// cold-learned table of the identical configuration.
func (k RunKey) identity() pltstore.Identity {
	return pltstore.Identity{Bench: k.Bench, Machine: k.machine(), Params: k.params(),
		Scale: k.Scale, Faults: k.Faults, Transfer: k.Transfer,
		Key: k.String(), Seed: k.DeriveSeed()}
}

// options builds the workload options of one attempt of key: scale, machine
// configuration with the attempt's seed, and the fault plan. Callers attach
// sinks, tracing and cancellation.
func (k RunKey) options(attempt int) (workload.Options, error) {
	opts := workload.DefaultOptions()
	opts.Scale = k.Scale
	opts.Machine = k.machine()
	opts.Machine.Seed = k.AttemptSeed(attempt)
	if k.Faults != "" {
		spec, err := faults.Named(k.Faults)
		if err != nil {
			return opts, err
		}
		// Seeded by the config's base seed: every run of this config sees
		// the same schedule regardless of mode, strategy or retry attempt.
		opts.Prepare = faults.NewPlan(k.Seed, spec.Scaled(k.Scale)).Install
	}
	return opts, nil
}

// benchKey is the cache key for a plain run of name under mode with the
// given L2 size.
func (c Config) benchKey(name string, mode machine.SimMode, l2 int) RunKey {
	return RunKey{Bench: name, Mode: mode, L2: l2, Scale: c.Scale, Seed: c.Seed,
		Faults: c.FaultPlan, Sample: c.Sample}.Key()
}

// accelKey is the cache key for an Accelerated run under the given
// re-learning strategy.
func (c Config) accelKey(name string, strat core.Strategy, l2 int) RunKey {
	k := c.benchKey(name, machine.Accelerated, l2)
	k.Strategy = strat
	// A -transfer invocation warm-starts every accelerated run from the
	// nearest store donor; rejections (no eligible donor) are counted and
	// fall back to cold, so the flag is safe on an empty store.
	if c.Transfer {
		k.Transfer = "store"
	}
	return k
}

// ParseMode resolves a simulation-mode name. Every front-end (fssimd
// requests, the fssim CLI) accepts the same spellings.
func ParseMode(s string) (machine.SimMode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "full", "fullsystem", "full-system", "app+os":
		return machine.FullSystem, nil
	case "app", "apponly", "app-only", "app only":
		return machine.AppOnly, nil
	case "accel", "accelerated", "pred", "app+os pred":
		return machine.Accelerated, nil
	}
	return 0, fmt.Errorf("unknown mode %q (want full, app or accel)", s)
}

// ParseStrategy resolves a re-learning strategy name ("" = Statistical, the
// paper's choice).
func ParseStrategy(s string) (core.Strategy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "statistical":
		return core.Statistical, nil
	case "best-match", "bestmatch":
		return core.BestMatch, nil
	case "eager":
		return core.Eager, nil
	case "delayed":
		return core.Delayed, nil
	}
	return 0, fmt.Errorf("unknown strategy %q (want statistical, best-match, eager or delayed)", s)
}
