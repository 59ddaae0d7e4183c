package pltstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"fssim/internal/core"
	"fssim/internal/durable"
)

// TestRecoverSweepsOrphansAndQuarantines covers the startup sweep end to
// end: orphan temps deleted, torn and transplanted snapshots quarantined
// (moved, not deleted), valid snapshots untouched bit-exact, INDEX rebuilt.
func TestRecoverSweepsOrphansAndQuarantines(t *testing.T) {
	dir := t.TempDir()
	s := Open(dir)
	snap := richSnapshot()
	if err := s.Save(snap); err != nil {
		t.Fatal(err)
	}
	goodPath := s.Path(snap.Benchmark, snap.LearnHash)
	goodBytes, err := os.ReadFile(goodPath)
	if err != nil {
		t.Fatal(err)
	}

	// A crashed writer's temp, a torn snapshot, and a transplanted one.
	if err := os.WriteFile(filepath.Join(dir, durable.TempPrefix+"000042"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	tornPath := s.Path(snap.Benchmark, snap.LearnHash+1)
	if err := os.WriteFile(tornPath, goodBytes[:len(goodBytes)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	transPath := s.Path("other-bench", snap.LearnHash)
	if err := os.WriteFile(transPath, goodBytes, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := Open(dir)
	rep, err := s2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rep.Orphans != 1 || rep.Quarantined != 2 {
		t.Fatalf("report = %+v, want 1 orphan / 2 quarantined", rep)
	}
	if got, _ := os.ReadFile(goodPath); !bytes.Equal(got, goodBytes) {
		t.Fatal("valid snapshot was not preserved bit-exact")
	}
	if _, err := s2.Load(snap.Benchmark, snap.LearnHash); err != nil {
		t.Fatalf("valid snapshot unloadable after recover: %v", err)
	}
	if _, err := s2.Load(snap.Benchmark, snap.LearnHash+1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("torn snapshot still loadable-ish: %v", err)
	}
	qents, err := os.ReadDir(filepath.Join(dir, QuarantineDir))
	if err != nil || len(qents) != 2 {
		t.Fatalf("quarantine dir = %v entries, err %v; want 2", len(qents), err)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), durable.TempPrefix) {
			t.Fatalf("orphan temp %s survived recover", e.Name())
		}
	}
	idx, err := s2.Index()
	if err != nil || len(idx) != 1 || idx[0].Benchmark != snap.Benchmark {
		t.Fatalf("index after recover = %v, %v; want exactly the valid snapshot", idx, err)
	}

	// Idempotent: a second sweep finds nothing.
	rep, err = s2.Recover()
	if err != nil || rep.Orphans != 0 || rep.Quarantined != 0 {
		t.Fatalf("second recover = %+v, %v; want clean no-op", rep, err)
	}
}

// TestCrashBetweenTempAndRename injects a crash after the temp file is
// created and written but before it is renamed, materializes what the crash
// leaves on disk, and verifies the next open sweeps the directory clean.
func TestCrashBetweenTempAndRename(t *testing.T) {
	cfs := durable.NewCrashFS()
	s := OpenFS("warm", cfs)
	snap := richSnapshot()
	if err := s.Save(snap); err != nil {
		t.Fatal(err)
	}
	goodBytes := Encode(snap)

	// Second save of an updated snapshot dies between CreateTemp and Rename:
	// budget admits mkdir + create + the payload write, then every durable
	// op fails.
	snap2 := richSnapshot()
	snap2.Stats.Cycles++
	snap2.ReplayHash++
	cfs.FailAfter(3)
	if err := s.Save(snap2); !errors.Is(err, durable.ErrInjectedCrash) {
		t.Fatalf("save = %v, want injected crash", err)
	}
	cfs.FailAfter(-1)

	n, err := cfs.Explore(cfs.OpsLen(), "warm", t.TempDir(), func(p durable.CrashPoint, dir string) error {
		rs := Open(dir)
		rep, err := rs.Recover()
		if err != nil {
			return err
		}
		if rep.Orphans == 0 {
			t.Errorf("%s: crashed writer's temp not swept", p)
		}
		if got, err := os.ReadFile(rs.Path(snap.Benchmark, snap.LearnHash)); err != nil || !bytes.Equal(got, goodBytes) {
			t.Errorf("%s: previous snapshot damaged: %v", p, err)
		}
		ents, _ := os.ReadDir(dir)
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), durable.TempPrefix) {
				t.Errorf("%s: temp %s survived the next open", p, e.Name())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no crash states explored")
	}
}

// TestSweepSparesLiveTemps pins the guard: an orphan sweep never deletes a
// temp file a concurrent in-process writer still owns.
func TestSweepSparesLiveTemps(t *testing.T) {
	dir := t.TempDir()
	s := Open(dir)
	liveTemp := filepath.Join(dir, durable.TempPrefix+"live01")
	if err := os.WriteFile(liveTemp, []byte("in flight"), 0o644); err != nil {
		t.Fatal(err)
	}
	s.markLive(liveTemp, true)
	if n := s.sweepOrphans(); n != 0 {
		t.Fatalf("sweep removed %d files, want 0", n)
	}
	if _, err := os.Stat(liveTemp); err != nil {
		t.Fatal("live temp was deleted by the sweep")
	}
	s.markLive(liveTemp, false)
	if n := s.sweepOrphans(); n != 1 {
		t.Fatalf("sweep after release removed %d files, want 1", n)
	}
}

// TestFirstSaveSweepsOrphans: the lazy path — a store that never calls
// Recover still cleans stale temps the first time it writes.
func TestFirstSaveSweepsOrphans(t *testing.T) {
	dir := t.TempDir()
	orphan := filepath.Join(dir, durable.TempPrefix+"stale")
	if err := os.WriteFile(orphan, []byte("old junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := Open(dir)
	if err := s.Save(richSnapshot()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("first save did not sweep the orphan temp")
	}
}

// recovered saves snap into a fresh directory and returns a second store
// over it that has run Recover, plus the snapshot's path.
func recovered(t *testing.T, snap *Snapshot) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	if err := Open(dir).Save(snap); err != nil {
		t.Fatal(err)
	}
	s := Open(dir)
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	return s, s.Path(snap.Benchmark, snap.LearnHash)
}

// TestRecoverHandsOffVerifiedSnapshot: the first load of a file Recover
// verified, unchanged since, gets Recover's snapshot without decoding the
// file again; the next load of the same path decodes a fresh one.
func TestRecoverHandsOffVerifiedSnapshot(t *testing.T) {
	snap := richSnapshot()
	s, path := recovered(t, snap)
	held := s.pending[path].snap
	if held == nil {
		t.Fatal("Recover kept no entry for the verified file")
	}
	first, sum, err := s.LoadSum(snap.Benchmark, snap.LearnHash)
	if err != nil {
		t.Fatal(err)
	}
	if first != held {
		t.Fatal("first load decoded the file again instead of taking Recover's snapshot")
	}
	data, _ := os.ReadFile(path)
	if sum != trailer(data) {
		t.Fatalf("handed-over checksum %016x, file ends in %016x", sum, trailer(data))
	}
	if len(s.pending) != 0 {
		t.Fatalf("%d entries still held after the hand-off", len(s.pending))
	}
	second, err := s.Load(snap.Benchmark, snap.LearnHash)
	if err != nil {
		t.Fatal(err)
	}
	if second == first {
		t.Fatal("second load shares the handed-over snapshot")
	}
	if !bytes.Equal(Encode(second), Encode(first)) || !bytes.Equal(Encode(first), data) {
		t.Fatal("handed-over and re-decoded snapshots differ from the file")
	}
}

// TestRecoverHandOffOnceUnderConcurrentLoads: of several loads racing for
// a file Recover verified, exactly one takes Recover's snapshot.
func TestRecoverHandOffOnceUnderConcurrentLoads(t *testing.T) {
	snap := richSnapshot()
	s, path := recovered(t, snap)
	held := s.pending[path].snap
	const loaders = 8
	got := make([]*Snapshot, loaders)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if got[i], err = s.Load(snap.Benchmark, snap.LearnHash); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	handed := 0
	for _, g := range got {
		if g == held {
			handed++
		}
		if g == nil || !bytes.Equal(Encode(g), Encode(snap)) {
			t.Fatal("a concurrent load returned another snapshot")
		}
	}
	if handed != 1 {
		t.Fatalf("Recover's snapshot was handed to %d loads, want 1", handed)
	}
}

// TestRecoverHandOffRechecksChangedFiles: a file changed after Recover gets
// exactly the result a store that never ran Recover gets, whether it was
// rewritten with other valid bytes, damaged, transplanted or deleted.
func TestRecoverHandOffRechecksChangedFiles(t *testing.T) {
	snap := richSnapshot()
	other := richSnapshot()
	other.Stats.Cycles++
	other.ReplayHash++
	badState := richSnapshot()
	badState.Stats.Insts = 0
	foreign := snapFor("foreign", 0)
	cases := []struct {
		name   string
		change func(data []byte) []byte // nil result deletes the file
		check  func(error) bool
	}{
		{"rewritten", func([]byte) []byte { return Encode(other) }, func(err error) bool { return err == nil }},
		{"flipped", func(d []byte) []byte { d[len(d)/2] ^= 1; return d }, isFormatError},
		{"truncated", func(d []byte) []byte { return d[:len(d)-9] }, isFormatError},
		{"transplanted", func([]byte) []byte { return Encode(foreign) },
			func(err error) bool { return errors.Is(err, ErrMismatch) }},
		{"bad state", func([]byte) []byte { return Encode(badState) },
			func(err error) bool { return errors.Is(err, core.ErrBadState) }},
		{"deleted", func([]byte) []byte { return nil }, func(err error) bool { return errors.Is(err, ErrNotFound) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, path := recovered(t, snap)
			held := s.pending[path].snap
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if changed := tc.change(data); changed == nil {
				err = os.Remove(path)
			} else {
				err = os.WriteFile(path, changed, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
			got, gotErr := s.Load(snap.Benchmark, snap.LearnHash)
			want, wantErr := Open(s.Dir()).Load(snap.Benchmark, snap.LearnHash)
			if !tc.check(gotErr) {
				t.Fatalf("load error %v has the wrong kind", gotErr)
			}
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("load error %v, a store without Recover gets %v", gotErr, wantErr)
			}
			if got != nil && (got == held || !bytes.Equal(Encode(got), Encode(want))) {
				t.Fatal("load returned Recover's snapshot of the old bytes")
			}
			if len(s.pending) != 0 {
				t.Fatalf("%d entries still held after the load", len(s.pending))
			}
		})
	}
}

func isFormatError(err error) bool {
	var fe *FormatError
	return errors.As(err, &fe)
}

// TestSaveDropsRecoveredSnapshot: saving to a path forgets what Recover
// verified there, through Save and PutVerified alike.
func TestSaveDropsRecoveredSnapshot(t *testing.T) {
	snap := richSnapshot()
	next := richSnapshot()
	next.Stats.Cycles++
	next.ReplayHash++
	for _, save := range []struct {
		name string
		do   func(*Store) error
	}{
		{"Save", func(s *Store) error { return s.Save(next) }},
		{"PutVerified", func(s *Store) error {
			_, err := s.PutVerified(next.Benchmark, next.LearnHash, Encode(next))
			return err
		}},
	} {
		t.Run(save.name, func(t *testing.T) {
			s, path := recovered(t, snap)
			if err := save.do(s); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.pending[path]; ok {
				t.Fatal("the saved path's Recover entry survived the save")
			}
			got, err := s.Load(snap.Benchmark, snap.LearnHash)
			if err != nil || got.ReplayHash != next.ReplayHash {
				t.Fatalf("load after save = %v, %v; want the saved snapshot", got, err)
			}
		})
	}
}

// TestRecoverKeepsCurrentIndex: a Recover whose rebuilt INDEX equals the
// file on disk writes nothing; a stale INDEX is rewritten.
func TestRecoverKeepsCurrentIndex(t *testing.T) {
	cfs := durable.NewCrashFS()
	s := OpenFS("warm", cfs)
	a, b := snapFor("index-a", 0), snapFor("index-b", 0)
	for _, snap := range []*Snapshot{a, b} {
		if err := s.Save(snap); err != nil {
			t.Fatal(err)
		}
	}
	mark := cfs.OpsLen()
	if _, err := OpenFS("warm", cfs).Recover(); err != nil {
		t.Fatal(err)
	}
	if n := cfs.OpsLen() - mark; n != 0 {
		t.Fatalf("Recover over a current INDEX did %d filesystem writes, want 0", n)
	}
	if err := cfs.Remove(s.Path(b.Benchmark, b.LearnHash)); err != nil {
		t.Fatal(err)
	}
	mark = cfs.OpsLen()
	rs := OpenFS("warm", cfs)
	if _, err := rs.Recover(); err != nil {
		t.Fatal(err)
	}
	if cfs.OpsLen() == mark {
		t.Fatal("Recover left a stale INDEX in place")
	}
	idx := rs.loadIndexCache()
	if len(idx) != 1 || idx[0].Benchmark != a.Benchmark {
		t.Fatalf("INDEX after Recover = %v, want only %s", idx, a.Benchmark)
	}
}
