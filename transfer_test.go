package fssim_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fssim"
	"fssim/internal/core"
	"fssim/internal/machine"
	"fssim/internal/pltstore"
	"fssim/internal/transfer"
	"fssim/internal/workload"
)

// TestRunBenchmarkTransferOptions checks that a Transfer the run could not
// honor is an error, not silently ignored.
func TestRunBenchmarkTransferOptions(t *testing.T) {
	for _, o := range []fssim.Options{
		{Mode: fssim.Accelerated, Scale: 0.1, Transfer: true},
		{Mode: fssim.FullSystem, Scale: 0.1, Transfer: true, WarmDir: t.TempDir()},
	} {
		if _, err := fssim.RunBenchmark("ab-rand", o); err == nil {
			t.Errorf("RunBenchmark(%+v) accepted a transfer it cannot perform", o)
		}
	}
}

// TestRunBenchmarkSnapshotIsDonor checks that a snapshot RunBenchmark saves
// carries its sweep family and coordinates: Store.Nearest finds the 512KB
// run as the donor for the 1MB configuration, at its pinned addresses, and a
// Transfer run at 1MB imports it.
func TestRunBenchmarkSnapshotIsDonor(t *testing.T) {
	dir := t.TempDir()
	opts := fssim.Options{Mode: fssim.Accelerated, Scale: 0.1, L2Size: 512 << 10, WarmDir: dir}
	if _, err := fssim.RunBenchmark("ab-rand", opts); err != nil {
		t.Fatal(err)
	}

	mcfg := workload.DefaultOptions().Machine
	mcfg.Mode = machine.Accelerated
	params := core.DefaultParams()
	params.Strategy = opts.Strategy
	family := transfer.FamilyHash("ab-rand", mcfg, params, opts.Scale, "")
	donor, err := pltstore.Open(dir).Nearest(family, transfer.FromConfig(mcfg))
	if err != nil {
		t.Fatalf("Nearest for the 1MB config: %v", err)
	}
	got := fmt.Sprintf("facade-l2-512k learn=%016x replay=%016x", donor.LearnHash, donor.ReplayHash)
	if want := pinnedIdentity(t, "facade-l2-512k"); got != want {
		t.Errorf("donor addresses %q, pinned %q", got, want)
	}

	opts.L2Size, opts.Transfer = 0, true
	rep, err := fssim.RunBenchmark("ab-rand", opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Transfer == nil || !strings.HasSuffix(rep.Transfer.DonorAddr, fmt.Sprintf("/%016x", donor.LearnHash)) {
		t.Errorf("1MB transfer run imported %+v, want the 512KB snapshot", rep.Transfer)
	}
}

// pinnedIdentity returns the line of testdata/identity.golden for name.
func pinnedIdentity(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "identity.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, name+" ") {
			return line
		}
	}
	t.Fatalf("no pinned identity %q", name)
	return ""
}
