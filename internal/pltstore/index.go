package pltstore

import (
	"encoding/json"
	"errors"
	"fmt"
	iofs "io/fs"
	"path/filepath"
	"sort"
	"strconv"

	"fssim/internal/durable"
)

// MaxSnapshotBytes caps how large a snapshot may be to travel between
// processes (peer gossip, client fetches). It is derived from the decoder's
// own structural caps: a snapshot near the learner/cluster/EPO limits is a
// few MB, so anything beyond this bound cannot be a snapshot the decoder
// would accept — it is rejected before buffering, not after.
const MaxSnapshotBytes = 16 << 20

// IndexFileName is the cached on-disk index the store maintains next to its
// snapshots. It is advisory: Index trusts it only when it exactly describes
// the .plt files on disk (name and size), and otherwise falls back to a full
// verified rescan. It is rewritten through the same durable path as
// snapshots, so a crash mid-rewrite leaves the old or new index, never a
// torn one — and even a stale index is safe, because every serve and fetch
// path re-verifies snapshot bytes before using them.
const IndexFileName = "INDEX"

// ErrOversize reports snapshot bytes beyond MaxSnapshotBytes: rejected
// before decoding (and, on the fetch path, before fully reading the body).
var ErrOversize = errors.New("pltstore: snapshot exceeds size cap")

// IndexEntry describes one stored snapshot for peer exchange: the address a
// peer can fetch it under, plus the on-disk size so a fetcher can refuse
// oversize transfers before issuing them. LearnHash travels as a %016x
// string — a uint64 does not survive JSON number round-trips intact.
type IndexEntry struct {
	Benchmark string `json:"benchmark"`
	LearnHash string `json:"learn_hash"`
	// Family is the sweep-family address (%016x), so a peer scanning the
	// index can spot transfer-eligible snapshots without fetching them.
	// Advisory like the rest of the entry: transfer eligibility is
	// re-verified against the fetched snapshot's own header.
	Family string `json:"family,omitempty"`
	Size   int64  `json:"size"`
}

// Addr renders the entry's store address compactly for logs and quarantine
// bookkeeping.
func (e IndexEntry) Addr() string { return e.Benchmark + "/" + e.LearnHash }

// indexEntry is the index record of a verified snapshot of size bytes.
func indexEntry(snap *Snapshot, size int) IndexEntry {
	return IndexEntry{Benchmark: snap.Benchmark, LearnHash: FormatHash(snap.LearnHash),
		Family: FormatHash(snap.Family), Size: int64(size)}
}

// FormatHash renders a learn hash the way IndexEntry carries it.
func FormatHash(h uint64) string { return fmt.Sprintf("%016x", h) }

// ParseHash parses a %016x learn hash (as carried by IndexEntry and peer
// fetch URLs).
func ParseHash(s string) (uint64, error) {
	if len(s) != 16 {
		return 0, fmt.Errorf("pltstore: learn hash %q is not 16 hex digits", s)
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("pltstore: bad learn hash %q: %w", s, err)
	}
	return v, nil
}

// indexFile is the on-disk INDEX cache format.
type indexFile struct {
	Version   int          `json:"version"`
	Snapshots []IndexEntry `json:"snapshots"`
}

// loadIndexCache parses the INDEX file; nil means absent or unusable (the
// caller falls back to a full scan — the cache is never trusted blindly).
func (s *Store) loadIndexCache() []IndexEntry {
	data, err := s.fsys.ReadFile(filepath.Join(s.dir, IndexFileName))
	if err != nil {
		return nil
	}
	var f indexFile
	if json.Unmarshal(data, &f) != nil || f.Version != 1 {
		return nil
	}
	return f.Snapshots
}

// writeIndexCache rewrites the INDEX through the durable atomic path.
// Best-effort: the cache is advisory, so an error only costs a rescan later.
func (s *Store) writeIndexCache(entries []IndexEntry) {
	sort.Slice(entries, func(i, j int) bool { return entries[i].Addr() < entries[j].Addr() })
	data, err := json.Marshal(indexFile{Version: 1, Snapshots: entries})
	if err != nil {
		return
	}
	durable.AtomicWrite(s.writeFS(), s.dir, IndexFileName, data)
}

// maybeWriteIndexCache rewrites the cache, except that an empty entry list
// never *creates* an INDEX file — an empty store stays an empty directory.
// Callers hold idxMu.
func (s *Store) maybeWriteIndexCache(entries []IndexEntry) {
	if len(entries) == 0 {
		if _, err := s.fsys.Stat(filepath.Join(s.dir, IndexFileName)); err != nil {
			return
		}
	}
	s.writeIndexCache(entries)
}

// updateIndex upserts one entry into the cached INDEX (serialized across
// in-process writers). Best-effort and advisory: if the cache drifts from
// disk — a crash between snapshot and index writes, an out-of-band deletion
// — Index detects the mismatch and rescans.
func (s *Store) updateIndex(entry IndexEntry) {
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	entries := s.loadIndexCache()
	replaced := false
	for i := range entries {
		if entries[i].Addr() == entry.Addr() {
			entries[i], replaced = entry, true
			break
		}
	}
	if !replaced {
		entries = append(entries, entry)
	}
	s.writeIndexCache(entries)
}

// indexMatchesDisk reports whether cached entries describe exactly the .plt
// files on disk: every entry's derived filename present with the recorded
// size, no disk file unaccounted for, no duplicate or unparseable entries.
func (s *Store) indexMatchesDisk(entries []IndexEntry, disk map[string]int64) bool {
	seen := make(map[string]bool, len(entries))
	for _, e := range entries {
		h, err := ParseHash(e.LearnHash)
		if err != nil {
			return false
		}
		name := filepath.Base(s.Path(e.Benchmark, h))
		if seen[name] {
			return false
		}
		sz, ok := disk[name]
		if !ok || sz != e.Size {
			return false
		}
		seen[name] = true
	}
	return len(seen) == len(disk)
}

// Index enumerates the store's snapshots as advertised to peers. Only files
// that decode and validate are listed — a corrupt or truncated file is never
// advertised, so a peer cannot be tricked into fetching garbage this node
// already knows is bad. Entries are sorted by address for determinism.
//
// When the cached INDEX exactly matches the on-disk file set (name + size),
// it is returned without re-reading every snapshot; any discrepancy — a
// crashed index rewrite, an out-of-band edit — falls back to the full
// verified rescan and rewrites the cache. Staleness is harmless beyond the
// rescan cost: serving and fetching both re-verify bytes end to end.
func (s *Store) Index() ([]IndexEntry, error) {
	dirents, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		if errors.Is(err, iofs.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("pltstore: %w", err)
	}
	disk := map[string]int64{}
	for _, e := range dirents {
		if e.Dir || !isSnapshotName(e.Name) {
			continue
		}
		disk[e.Name] = e.Size
	}
	if cached := s.loadIndexCache(); cached != nil && s.indexMatchesDisk(cached, disk) {
		sort.Slice(cached, func(i, j int) bool { return cached[i].Addr() < cached[j].Addr() })
		return cached, nil
	}

	names := make([]string, 0, len(disk))
	for name := range disk {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []IndexEntry
	for _, name := range names {
		p := filepath.Join(s.dir, name)
		// Only what Load would accept is advertised: a transplanted,
		// corrupt or invalid file is not.
		data, err := s.fsys.ReadFile(p)
		if err != nil {
			continue
		}
		if snap, err := s.verify(p, data); err == nil {
			out = append(out, indexEntry(snap, len(data)))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr() < out[j].Addr() })
	s.idxMu.Lock()
	s.maybeWriteIndexCache(append([]IndexEntry(nil), out...))
	s.idxMu.Unlock()
	return out, nil
}

// PutVerified installs snapshot bytes fetched from an untrusted peer, but
// only after full verification: the size cap, the checksum-first structural
// decode, the semantic validator, and an exact match between the
// self-described identity and the (bench, learnHash) address the caller is
// entitled to store it under. Any failure leaves the store untouched and
// returns a typed error (ErrOversize, *FormatError, ErrMismatch, or a
// core.ErrBadState wrap); only a nil error means the bytes are now a
// loadable local snapshot. The verified bytes are written verbatim through
// the durable atomic path (temp → fsync → rename → dir fsync), so what
// lands on disk is exactly what was checked, even across a crash.
func (s *Store) PutVerified(bench string, learnHash uint64, data []byte) (*Snapshot, error) {
	path := s.Path(bench, learnHash)
	snap, err := s.verify(path, data)
	if err != nil {
		return nil, err
	}
	if snap.Benchmark != bench {
		return nil, fmt.Errorf("%w: fetched bytes describe %s, wanted %s", ErrMismatch, snap.Benchmark, bench)
	}
	if s.swept.CompareAndSwap(false, true) {
		s.sweepOrphans()
	}
	if err := durable.AtomicWrite(s.writeFS(), s.dir, filepath.Base(path), data); err != nil {
		return nil, fmt.Errorf("pltstore: %w", err)
	}
	s.updateIndex(indexEntry(snap, len(data)))
	return snap, nil
}

// Has reports whether a snapshot file exists at the given address (without
// reading or validating it — the cheap anti-entropy "do I need this?" check).
func (s *Store) Has(bench string, learnHash uint64) bool {
	_, err := s.fsys.Stat(s.Path(bench, learnHash))
	return err == nil
}
