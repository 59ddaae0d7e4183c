package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fssim/internal/pltstore"
)

var update = flag.Bool("update", false, "rewrite testdata/fssim.golden")

// TestGolden pins every report line except the host-time line, plus stderr,
// the exit status and the identity of every snapshot a warm directory holds,
// for a fixed sequence of invocations at scale 0.1. The warm-dir steps run in
// order against shared directories: a cold run then a warm one, and a
// transfer hit (512KB donor) then a transfer miss (only a 16MB donor).
// Re-pin an intentional change with:
//
//	go test ./cmd/fssim -run TestGolden -update
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("long: simulates ten small runs")
	}
	dirs := map[string]string{
		"$WARM": t.TempDir(),
		"$XFER": t.TempDir(),
		"$FAR":  t.TempDir(),
	}
	steps := [][]string{
		{"-bench", "ab-rand"},
		{"-bench", "du", "-mode", "apponly"},
		{"-bench", "ab-rand", "-mode", "accel", "-services"},
		{"-bench", "ab-rand", "-sample", "fast"},
		{"-bench", "ab-rand", "-mode", "accel", "-warm-dir", "$WARM"},
		{"-bench", "ab-rand", "-mode", "accel", "-warm-dir", "$WARM"},
		{"-bench", "ab-rand", "-mode", "accel", "-l2", "524288", "-warm-dir", "$XFER"},
		{"-bench", "ab-rand", "-mode", "accel", "-warm-dir", "$XFER", "-transfer"},
		{"-bench", "ab-seq", "-mode", "accel", "-l2", "16777216", "-warm-dir", "$FAR"},
		{"-bench", "ab-seq", "-mode", "accel", "-warm-dir", "$FAR", "-transfer"},
	}
	var got strings.Builder
	for _, step := range steps {
		step = append(step, "-scale", "0.1")
		args := make([]string, len(step))
		warm := ""
		for i, a := range step {
			args[i] = a
			if d, ok := dirs[a]; ok {
				args[i], warm = d, d
			}
		}
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		fmt.Fprintf(&got, "$ fssim %s\n", strings.Join(step, " "))
		for _, line := range strings.SplitAfter(stdout.String(), "\n") {
			if !strings.HasPrefix(line, "host time") {
				got.WriteString(line)
			}
		}
		msg := stderr.String()
		for name, d := range dirs {
			msg = strings.ReplaceAll(msg, d, name)
		}
		for _, line := range strings.Split(strings.TrimSpace(msg), "\n") {
			if line != "" {
				fmt.Fprintf(&got, "stderr: %s\n", line)
			}
		}
		fmt.Fprintf(&got, "exit %d\n", code)
		if warm != "" {
			writeSnapshots(t, &got, warm)
		}
		got.WriteString("\n")
	}

	path := filepath.Join("testdata", "fssim.golden")
	if *update {
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
		t.Errorf("fssim output drifted from %s:\n--- got ---\n%s", path, got.String())
	}
}

// writeSnapshots lists the identity of every snapshot in a warm directory:
// the file name carries the learn-hash address, the body the replay hash,
// the sweep family and the transfer provenance hash.
func writeSnapshots(t *testing.T, w *strings.Builder, dir string) {
	t.Helper()
	paths, err := pltstore.Open(dir).List("")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := pltstore.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(w, "plt %s key=%s replay=%016x family=%016x transfer=%016x coords=%v\n",
			filepath.Base(p), snap.Key, snap.ReplayHash, snap.Family, snap.TransferHash, snap.Coords)
	}
}

// TestUsageErrors checks that flag errors exit 2 and run errors exit 1.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-bogus"}, 2},
		{[]string{"-mode", "nope"}, 1},
		{[]string{"-mode", "accel", "-strategy", "nope"}, 1},
		{[]string{"-bench", "nope", "-scale", "0.1"}, 1},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("fssim %s: exit %d, want %d (stderr %q)", strings.Join(tc.args, " "), code, tc.code, stderr.String())
		}
	}
}
