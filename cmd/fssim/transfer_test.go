package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestTransferUsage checks that -transfer is refused with exit 2 where it
// cannot act: without -warm-dir, and outside -mode accel.
func TestTransferUsage(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "accel", "-transfer"},
		{"-mode", "full", "-transfer", "-warm-dir", t.TempDir()},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), "transfer requires") {
			t.Errorf("fssim %s: exit %d, stderr %q; want exit 2 naming the transfer requirement",
				strings.Join(args, " "), code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("fssim %s ran anyway:\n%s", strings.Join(args, " "), stdout.String())
		}
	}
}
