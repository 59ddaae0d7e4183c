package pltstore

import (
	"bytes"
	"errors"
	iofs "io/fs"
	"path/filepath"
	"strings"

	"fssim/internal/durable"
)

// QuarantineDir is the subdirectory (under the store root) that Recover
// moves corrupt, torn, or transplanted snapshot files into. Quarantined
// files are out of every load/advertise path but preserved for forensics;
// nothing in the store ever reads them back.
const QuarantineDir = "quarantine"

// RecoveryReport summarizes what a startup Recover sweep found and fixed.
type RecoveryReport struct {
	// Orphans is the number of stale temp files deleted — in-flight writes
	// whose process died before the rename.
	Orphans int
	// Quarantined is the number of snapshot files moved to QuarantineDir
	// because they failed the recovery oracle: checksum-first decode,
	// filename-vs-header identity, and semantic state validation.
	Quarantined int
}

// isSnapshotName reports whether a directory entry name is a snapshot file.
func isSnapshotName(name string) bool { return strings.HasSuffix(name, ".plt") }

// Recover sweeps the store directory after a potential crash: orphan temp
// files are deleted, and every snapshot file is re-verified with the same
// oracle Load uses — the trailing checksum (verified before any field is
// parsed), the structural decode, the filename-vs-header identity check, and
// core's semantic validator. Files that fail are moved into QuarantineDir,
// never deleted and never importable; files that pass are untouched,
// bit-exact. The cached INDEX is rebuilt from the verified scan; it is not
// rewritten when it already holds exactly the rebuilt bytes.
//
// Recover keeps what it verified: the first load of each verified file takes
// the decoded snapshot instead of verifying it again, provided the file
// still holds the same bytes (see claim). Until then the store holds each
// unclaimed file's bytes and snapshot in memory.
//
// Recover is idempotent and safe to call on a store that was shut down
// cleanly (it finds nothing to do). Callers that skip it still get the
// orphan sweep lazily on first save and per-file verification on every load;
// Recover adds the eager quarantine and the recovered.* counts.
func (s *Store) Recover() (RecoveryReport, error) {
	var rep RecoveryReport
	s.swept.Store(true) // the first-save lazy sweep is now redundant
	entries, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		if errors.Is(err, iofs.ErrNotExist) {
			return rep, nil
		}
		return rep, err
	}
	var valid []IndexEntry
	pending := make(map[string]verified)
	for _, e := range entries {
		if e.Dir {
			continue
		}
		p := filepath.Join(s.dir, e.Name)
		if strings.HasPrefix(e.Name, durable.TempPrefix) {
			if s.isLive(p) {
				continue
			}
			if s.fsys.Remove(p) == nil {
				rep.Orphans++
			}
			continue
		}
		if !isSnapshotName(e.Name) {
			continue // INDEX (rebuilt below) and foreign files are left alone
		}
		if data, err := s.fsys.ReadFile(p); err == nil {
			if snap, err := s.verify(p, data); err == nil {
				valid = append(valid, indexEntry(snap, len(data)))
				pending[p] = verified{data: data, snap: snap}
				continue
			}
		}
		if s.quarantine(e.Name) {
			rep.Quarantined++
		}
	}
	s.mu.Lock()
	s.pending = pending
	s.mu.Unlock()
	s.idxMu.Lock()
	if !s.indexHolds(valid) {
		s.maybeWriteIndexCache(valid)
	}
	s.idxMu.Unlock()
	return rep, nil
}

// verified is a snapshot file Recover read and verified: its bytes and the
// snapshot they decode to.
type verified struct {
	data []byte
	snap *Snapshot
}

// claim hands over the snapshot Recover verified at path if data, the bytes
// a load just read there, equal the bytes Recover verified; nil sends the
// load through verify. The entry is dropped either way, so a snapshot is
// handed out at most once and never shared between loads.
func (s *Store) claim(path string, data []byte) *Snapshot {
	s.mu.Lock()
	v, ok := s.pending[path]
	delete(s.pending, path)
	s.mu.Unlock()
	if ok && bytes.Equal(v.data, data) {
		return v.snap
	}
	return nil
}

// drop forgets Recover's entry for path, which a save is about to replace or
// a load could not read.
func (s *Store) drop(path string) {
	s.mu.Lock()
	delete(s.pending, path)
	s.mu.Unlock()
}

// quarantine moves one failed snapshot file out of the load path. Falls back
// to deletion if the move itself fails — a file that can be neither moved
// nor removed stays put and keeps failing Load's verification, which is safe
// (never imported), just unreported.
func (s *Store) quarantine(name string) bool {
	src := filepath.Join(s.dir, name)
	qdir := filepath.Join(s.dir, QuarantineDir)
	if err := s.fsys.MkdirAll(qdir); err == nil {
		if s.fsys.Rename(src, filepath.Join(qdir, name)) == nil {
			return true
		}
	}
	return s.fsys.Remove(src) == nil
}
