package fssim_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fssim"
	"fssim/internal/core"
	"fssim/internal/experiments"
	"fssim/internal/machine"
	"fssim/internal/pltstore"
	"fssim/internal/sample"
	"fssim/internal/server"
)

var updateIdentity = flag.Bool("update", false, "rewrite testdata/identity.golden")

// identityCase is one run description whose identity is pinned.
type identityCase struct {
	name string
	spec experiments.RunSpec
}

// identityCases covers every option that takes part in a run's identity:
// mode, each strategy, the watchdog, a fault plan, a sampling spec, both
// transfer directives, non-default L2, scale and seed, and the defaults that
// fold away (the platform L2, scale 0, seed 0, and strategy or watchdog on a
// non-accelerated run).
func identityCases(t *testing.T) []identityCase {
	fast, err := sample.Canonical("fast")
	if err != nil {
		t.Fatal(err)
	}
	full := experiments.RunSpec{Bench: "ab-rand", Mode: machine.FullSystem, Scale: 0.1, Seed: 1}
	accel := experiments.RunSpec{Bench: "ab-rand", Mode: machine.Accelerated, Scale: 0.1, Seed: 1,
		Strategy: core.Statistical}
	with := func(sp experiments.RunSpec, f func(*experiments.RunSpec)) experiments.RunSpec {
		f(&sp)
		return sp
	}
	return []identityCase{
		{"full", full},
		{"apponly", with(full, func(s *experiments.RunSpec) { s.Bench, s.Mode = "du", machine.AppOnly })},
		{"full-strategy-ignored", with(full, func(s *experiments.RunSpec) { s.Strategy, s.Watchdog = core.Eager, true })},
		{"full-faults", with(full, func(s *experiments.RunSpec) { s.Faults = "storm" })},
		{"full-sample", with(full, func(s *experiments.RunSpec) { s.Sample = fast })},
		{"full-l2-2m", with(full, func(s *experiments.RunSpec) { s.L2 = 2 << 20 })},
		{"full-scale-default", with(full, func(s *experiments.RunSpec) { s.Scale = 0 })},
		{"accel-bestmatch", with(accel, func(s *experiments.RunSpec) { s.Strategy = core.BestMatch })},
		{"accel-eager", with(accel, func(s *experiments.RunSpec) { s.Strategy = core.Eager })},
		{"accel-delayed", with(accel, func(s *experiments.RunSpec) { s.Strategy = core.Delayed })},
		{"accel-statistical", accel},
		{"accel-watchdog", with(accel, func(s *experiments.RunSpec) { s.Watchdog = true })},
		{"accel-bestmatch-watchdog", with(accel, func(s *experiments.RunSpec) { s.Strategy, s.Watchdog = core.BestMatch, true })},
		{"accel-faults", with(accel, func(s *experiments.RunSpec) { s.Faults = "storm" })},
		{"accel-sample", with(accel, func(s *experiments.RunSpec) { s.Sample = fast })},
		{"accel-transfer-store", with(accel, func(s *experiments.RunSpec) { s.Transfer = "store" })},
		{"accel-transfer-l2", with(accel, func(s *experiments.RunSpec) { s.Transfer = "l2=524288" })},
		{"accel-l2-512k", with(accel, func(s *experiments.RunSpec) { s.L2 = 512 << 10 })},
		{"accel-l2-default", with(accel, func(s *experiments.RunSpec) { s.L2 = 1 << 20 })},
		{"accel-scale", with(accel, func(s *experiments.RunSpec) { s.Scale = 0.05 })},
		{"accel-seed-0", with(accel, func(s *experiments.RunSpec) { s.Seed = 0 })},
		{"accel-seed-7", with(accel, func(s *experiments.RunSpec) { s.Seed = 7 })},
	}
}

// TestRunIdentityPinned pins, for every identity case, the key string, the
// derived and retry seeds, the public run id, and — for every run the warm
// store persists — the snapshot's learn and replay addresses, sweep family,
// transfer provenance hash and swept coordinates, as the scheduler writes
// them. A final row pins the addresses of a snapshot fssim.RunBenchmark
// writes. Any drift here silently orphans every existing warm directory and
// cached run id. Re-pin a deliberate change with:
//
//	go test . -run TestRunIdentityPinned -update
func TestRunIdentityPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("long: simulates every warm-eligible identity case")
	}
	var got strings.Builder
	cases := identityCases(t)
	for _, c := range cases {
		k := c.spec.Key()
		fmt.Fprintf(&got, "%s key=%s seed=%d retry1=%d id=%s\n",
			c.name, k, k.DeriveSeed(), k.AttemptSeed(1), server.RunID(k))
	}

	// Each warm-eligible case runs in its own warm directory: cases that
	// differ only in seed share a snapshot address and would overwrite each
	// other's file.
	for _, c := range cases {
		if c.spec.Mode != machine.Accelerated || c.spec.Sample != "" {
			continue
		}
		k := c.spec.Key()
		dir := t.TempDir()
		sched := experiments.NewScheduler(experiments.Config{WarmDir: dir, Parallelism: 1})
		if _, _, err := sched.Lookup(context.Background(), k); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, s := range loadSnapshots(t, dir) {
			if s.Key == k.String() {
				fmt.Fprintf(&got, "%s learn=%016x replay=%016x family=%016x transfer=%016x coords=%v\n",
					c.name, s.LearnHash, s.ReplayHash, s.Family, s.TransferHash, s.Coords)
			}
		}
	}

	facadeDir := t.TempDir()
	if _, err := fssim.RunBenchmark("ab-rand", fssim.Options{Mode: fssim.Accelerated,
		Scale: 0.1, L2Size: 512 << 10, WarmDir: facadeDir}); err != nil {
		t.Fatal(err)
	}
	for _, s := range loadSnapshots(t, facadeDir) {
		fmt.Fprintf(&got, "facade-l2-512k learn=%016x replay=%016x\n", s.LearnHash, s.ReplayHash)
	}

	path := filepath.Join("testdata", "identity.golden")
	if *updateIdentity {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("run identity drifted from %s:\n--- got ---\n%s", path, got.String())
	}
}

// loadSnapshots decodes every snapshot in a warm directory.
func loadSnapshots(t *testing.T, dir string) []*pltstore.Snapshot {
	t.Helper()
	store := pltstore.Open(dir)
	paths, err := store.List("")
	if err != nil {
		t.Fatal(err)
	}
	var out []*pltstore.Snapshot
	for _, p := range paths {
		s, err := store.LoadPath(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out = append(out, s)
	}
	return out
}
