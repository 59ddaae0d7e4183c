// Package pltstore persists learned Performance Lookup Tables across runs:
// a versioned, self-describing on-disk store that snapshots an accelerated
// run's complete learner state (clusters with full moments, phases, outlier
// and watchdog bookkeeping) plus its deterministic machine statistics, and
// warm-starts later runs from it so the learning window is paid once per
// workload configuration instead of once per process.
//
// The store is config-addressed. Two FNV-1a hashes gate reuse:
//
//   - LearnHash fingerprints everything the learned state depends on —
//     benchmark, machine configuration (seed excluded), acceleration
//     parameters, workload scale, fault plan, and the format version. It is
//     the filename discriminator and the compatibility gate: a snapshot only
//     ever loads into the configuration that produced it. A mismatch is a
//     cold start with a counted metric, never a wrong prediction.
//   - ReplayHash additionally binds the exact run identity (the full RunKey
//     string and the derived machine seed). When it matches, the snapshot's
//     recorded machine.Stats are the byte-identical result of re-running the
//     simulation, so the scheduler can reconstruct the outcome without
//     simulating at all; when only LearnHash matches, callers may still
//     warm-start the learners and simulate.
//
// Loading is strictly validated: the binary codec (codec.go) rejects
// malformed bytes with a typed *FormatError, and the decoded learner state
// passes core.AccelState.Validate before it can reach an accelerator.
// Corrupt, truncated, or stale files therefore degrade to cold starts.
//
// Writes are crash-consistent: every file the store publishes goes through
// internal/durable's blessed path (temp → fsync → rename → dir fsync), so a
// crash at any instant leaves each address holding the old snapshot or the
// new one, bit-exact — never a torn file under a final name. What a crash
// can leave behind is an orphan temp or (on pathological storage) a torn or
// flipped file; Recover sweeps both at startup, deleting orphans and
// quarantining anything that fails the checksum/identity/validation oracle
// so it is never silently imported.
package pltstore

import (
	"errors"
	"fmt"
	"hash/fnv"
	iofs "io/fs"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"fssim/internal/core"
	"fssim/internal/durable"
	"fssim/internal/machine"
	"fssim/internal/transfer"
)

// FormatVersion is the snapshot format generation. It participates in
// LearnHash, so a format change invalidates every existing snapshot rather
// than misreading it. Version 2 added the transfer family/provenance trailer
// (Family, TransferHash, Coords) for cross-config warm starts.
const FormatVersion = 2

// ErrNotFound reports that no snapshot exists for the requested
// (benchmark, learn-hash) address.
var ErrNotFound = errors.New("pltstore: no snapshot for this configuration")

// ErrMismatch reports that a snapshot file's self-described identity does
// not match the address it was loaded under (a renamed or transplanted
// file). Callers treat it like corruption: cold start.
var ErrMismatch = errors.New("pltstore: snapshot does not match requested configuration")

// Snapshot is one persisted run: identity hashes, the run's deterministic
// aggregate statistics (for exact replay), and the full learner state (for
// warm-starting).
type Snapshot struct {
	LearnHash  uint64
	ReplayHash uint64

	// Family and Coords support cross-config transfer (internal/transfer):
	// Family addresses the sweep family (LearnHash minus the swept machine
	// parameters) and Coords are the swept coordinates themselves, so a
	// recipient config can find and rank eligible donors without decoding
	// machine configs. TransferHash is the provenance trailer: 0 for a
	// cold-learned snapshot, otherwise the hash of the donor and scaling
	// model this snapshot's run imported — transferred snapshots are never
	// donors themselves (no transfer chains).
	Family       uint64
	TransferHash uint64
	Coords       transfer.Coords

	Benchmark string
	Key       string // the producing RunKey, for diagnostics
	Stats     machine.Stats
	State     *core.AccelState
}

// Validate checks the snapshot beyond codec well-formedness: a benchmark
// name, a learner state that passes core's strict validation (finite
// non-negative centroids, bounded cluster counts, consistent rings), and
// non-degenerate statistics. Failures wrap core.ErrBadState or ErrMismatch
// so callers can count them as invalidations.
func (s *Snapshot) Validate() error {
	if s.Benchmark == "" {
		return fmt.Errorf("%w: empty benchmark", core.ErrBadState)
	}
	if s.State == nil {
		return fmt.Errorf("%w: missing learner state", core.ErrBadState)
	}
	if err := s.State.Validate(); err != nil {
		return err
	}
	if s.Stats.Insts == 0 || s.Stats.Cycles == 0 {
		return fmt.Errorf("%w: degenerate run statistics", core.ErrBadState)
	}
	c := s.Coords
	for _, v := range []int{
		c.L1ISize, c.L1IAssoc, c.L1DSize, c.L1DAssoc, c.L2Size, c.L2Assoc,
		c.FetchWidth, c.IssueWidth, c.RetireWidth, c.ROBSize,
		c.MemLatency, c.BusOccupancy,
	} {
		if v < 0 {
			return fmt.Errorf("%w: negative sweep coordinate %d", core.ErrBadState, v)
		}
	}
	return nil
}

// LearnHash fingerprints the configuration a learned PLT depends on. The
// machine seed is deliberately zeroed: learned behavior clusters transfer
// across seeds of the same configuration (that is the point of
// warm-starting), while exact result replay is separately gated by
// ReplayHash, which does bind the seed.
func LearnHash(bench string, mcfg machine.Config, p core.Params, scale float64, faultPlan string) uint64 {
	mcfg.Seed = 0
	h := fnv.New64a()
	fmt.Fprintf(h, "fssim-plt|v%d|bench=%s|scale=%x|faults=%s|machine=%+v|params=%+v",
		FormatVersion, bench, math.Float64bits(scale), faultPlan, mcfg, p)
	return h.Sum64()
}

// LearnHashWith is LearnHash extended with the run's transfer directive. A
// run without a directive keeps its plain LearnHash address; a transferred
// run gets a distinct address, so a transferred table can never be mistaken
// for (or overwrite) the cold-learned table of the identical configuration —
// the donor's priors shape what is learned, and the two must not share an
// address.
func LearnHashWith(bench string, mcfg machine.Config, p core.Params, scale float64, faultPlan, transferSpec string) uint64 {
	base := LearnHash(bench, mcfg, p, scale, faultPlan)
	if transferSpec == "" {
		return base
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "fssim-plt-transfer|%016x|%s", base, transferSpec)
	return h.Sum64()
}

// ReplayHash binds a snapshot to one exact run: the learn-compatibility
// hash, the full run-key string, and the derived machine seed. Two runs with
// equal ReplayHash are the same deterministic simulation, so the stored
// Stats are byte-identical to what re-running would produce.
func ReplayHash(learnHash uint64, key string, seed int64) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "fssim-replay|%016x|%s|seed=%d", learnHash, key, seed)
	return h.Sum64()
}

// TransferReplayHash is ReplayHash for a transferred run: it additionally
// binds the TransferHash — the exact donor and scaling model imported. The
// "store" directive resolves to whatever donor the warm directory holds at
// run time, so the directive alone does not pin the run's inputs; binding
// the provenance hash means a snapshot recorded under one donor can never
// replay for an invocation that would have resolved a different one — that
// mismatch is a counted invalidation and a fresh simulation.
func TransferReplayHash(learnHash uint64, key string, seed int64, transferHash uint64) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "fssim-replay|%016x|%s|seed=%d|transfer=%016x", learnHash, key, seed, transferHash)
	return h.Sum64()
}

// Identity is everything a snapshot's addresses are derived from: the
// configuration its learned table depends on, the transfer directive the run
// carried, and the exact run it records. Every writer builds its snapshots
// through Identity.Snapshot, so a table saved by one front-end is found by
// every other.
type Identity struct {
	Bench    string
	Machine  machine.Config // the run's machine config (its seed is ignored)
	Params   core.Params
	Scale    float64
	Faults   string // faults.Named plan ("" = none)
	Transfer string // the run's transfer directive ("" = cold start)
	Key      string // the producing run's key string
	Seed     int64  // the run's machine seed
}

// LearnHash is the identity's snapshot address (see LearnHashWith).
func (id Identity) LearnHash() uint64 {
	return LearnHashWith(id.Bench, id.Machine, id.Params, id.Scale, id.Faults, id.Transfer)
}

// ReplayHash is the identity's exact-replay address. A run that imported
// donor priors binds their provenance hash too (TransferReplayHash).
func (id Identity) ReplayHash(prov *transfer.Provenance) uint64 {
	if prov != nil {
		return TransferReplayHash(id.LearnHash(), id.Key, id.Seed, prov.Hash)
	}
	return ReplayHash(id.LearnHash(), id.Key, id.Seed)
}

// Family is the identity's sweep-family address (transfer.FamilyHash).
func (id Identity) Family() uint64 {
	return transfer.FamilyHash(id.Bench, id.Machine, id.Params, id.Scale, id.Faults)
}

// Snapshot builds the snapshot one successful run persists: alongside the
// learned state and statistics it records the sweep family and swept
// coordinates that make it discoverable as a transfer donor, and — for a
// run that imported priors (prov non-nil) — the TransferHash trailer that
// both marks the table as transferred (ineligible to donate further) and
// binds its replay address to the exact donor and model imported.
func (id Identity) Snapshot(stats machine.Stats, state *core.AccelState, prov *transfer.Provenance) *Snapshot {
	snap := &Snapshot{
		LearnHash:  id.LearnHash(),
		ReplayHash: id.ReplayHash(prov),
		Family:     id.Family(),
		Coords:     transfer.FromConfig(id.Machine),
		Benchmark:  id.Bench,
		Key:        id.Key,
		Stats:      stats,
		State:      state,
	}
	if prov != nil {
		snap.TransferHash = prov.Hash
	}
	return snap
}

// TransferTo rescales the snapshot's learned state into priors for a
// recipient at coordinates recip learning under params, and returns them
// with the provenance of the import. It fails when the donor is beyond
// transfer.MaxDistance, or with Rescale's error.
func (s *Snapshot) TransferTo(recip transfer.Coords, params core.Params) (*core.AccelState, *transfer.Provenance, error) {
	dist := transfer.Distance(s.Coords, recip)
	if !transfer.Eligible(dist) {
		return nil, nil, fmt.Errorf("pltstore: donor at distance %.2f is beyond the transfer cutoff %g",
			dist, transfer.MaxDistance)
	}
	model := transfer.FitAnalytic(s.Coords, recip)
	prior, err := transfer.Rescale(s.State, model, params)
	if err != nil {
		return nil, nil, err
	}
	return prior, &transfer.Provenance{
		DonorBench: s.Benchmark,
		DonorAddr:  FormatHash(s.Family) + "/" + FormatHash(s.LearnHash),
		Distance:   dist,
		Scale:      model.L2M,
		Hash:       transfer.TransferHash(s.LearnHash, model),
	}, nil
}

// NearestDonor returns the closest transfer-eligible donor among snaps for a
// recipient in the given sweep family at coordinates recip: among snapshots
// whose Family matches, whose provenance is cold-learned (TransferHash 0 —
// transferred tables never donate, so priors cannot chain and compound model
// error), and whose distance is within transfer.MaxDistance, the
// minimum-distance one. Ties keep the earliest in snaps, so a caller passing
// path-sorted snapshots gets a deterministic choice. It returns nil when no
// snapshot is eligible.
func NearestDonor(snaps []*Snapshot, family uint64, recip transfer.Coords) *Snapshot {
	var best *Snapshot
	bestDist := math.Inf(1)
	for _, snap := range snaps {
		if snap.Family != family || snap.TransferHash != 0 {
			continue
		}
		if d := transfer.Distance(snap.Coords, recip); transfer.Eligible(d) && d < bestDist {
			best, bestDist = snap, d
		}
	}
	return best
}

// Store is a directory of snapshot files, one per (benchmark, learn-hash)
// address. The zero Store is unusable; build with Open (or OpenFS to inject
// a filesystem — tests use durable.CrashFS to explore crash states). A
// Store is safe for concurrent use: writes go through the durable atomic
// path and reads see either the old or the new complete snapshot.
type Store struct {
	dir  string
	fsys durable.FS

	// live tracks temp files owned by in-flight writers in this process so
	// the orphan sweep never deletes a temp that is about to be renamed.
	mu    sync.Mutex
	live  map[string]bool
	swept atomic.Bool // first-save orphan sweep has run (or Recover did)

	// idxMu serializes read-modify-write cycles on the cached INDEX file.
	// Separate from mu: the index rewrite goes through the durable write
	// path, which takes mu to track its temp file.
	idxMu sync.Mutex
}

// Open returns a store rooted at dir, backed by the real filesystem. The
// directory is created lazily on first save, so opening a store never
// touches the filesystem; call Recover to run the startup sweep eagerly.
func Open(dir string) *Store { return OpenFS(dir, durable.OS()) }

// OpenFS returns a store rooted at dir on the given filesystem. Production
// callers use Open; tests inject a durable.CrashFS to enumerate what crashes
// can leave behind.
func OpenFS(dir string, fsys durable.FS) *Store {
	return &Store{dir: dir, fsys: fsys, live: map[string]bool{}}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Path returns the snapshot file path for the given address.
func (s *Store) Path(bench string, learnHash uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s-%016x.plt", sanitize(bench), learnHash))
}

// sanitize maps a benchmark name onto the filename-safe alphabet; the
// snapshot header, not the filename, is the authoritative identity.
func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		default:
			return '_'
		}
	}, name)
}

// markLive records (or clears) in-process ownership of a temp file path.
func (s *Store) markLive(path string, live bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if live {
		s.live[path] = true
	} else {
		delete(s.live, path)
	}
}

func (s *Store) isLive(path string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live[path]
}

// trackFS wraps the store's filesystem so temp files created by the durable
// write path are registered in the live set for exactly the window between
// creation and publication (or cleanup).
type trackFS struct {
	durable.FS
	s *Store
}

func (t trackFS) CreateTemp(dir, pattern string) (durable.File, error) {
	f, err := t.FS.CreateTemp(dir, pattern)
	if err == nil {
		t.s.markLive(f.Name(), true)
	}
	return f, err
}

func (t trackFS) Rename(oldpath, newpath string) error {
	err := t.FS.Rename(oldpath, newpath)
	if err == nil {
		t.s.markLive(oldpath, false)
	}
	return err
}

func (t trackFS) Remove(path string) error {
	err := t.FS.Remove(path)
	t.s.markLive(path, false)
	return err
}

func (s *Store) writeFS() durable.FS { return trackFS{FS: s.fsys, s: s} }

// sweepOrphans deletes stale temp files left by crashed writers. Temps owned
// by in-flight writers in this process are skipped; a temp owned by a writer
// in *another* process sharing the directory could be swept, in which case
// that writer's rename fails cleanly (save error, no corruption) — the store
// is concurrency-safe within a process and crash-safe across them.
func (s *Store) sweepOrphans() int {
	entries, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	removed := 0
	for _, e := range entries {
		if e.Dir || !strings.HasPrefix(e.Name, durable.TempPrefix) {
			continue
		}
		p := filepath.Join(s.dir, e.Name)
		if s.isLive(p) {
			continue
		}
		if s.fsys.Remove(p) == nil {
			removed++
		}
	}
	return removed
}

// Save writes the snapshot crash-consistently through the durable path:
// encoded to a temp file, fsync'd, renamed into place, directory fsync'd. A
// concurrent reader never observes a partial file, and a crash at any point
// leaves the address holding the previous snapshot or the new one bit-exact
// (plus at worst an orphan temp for the next sweep). The first save also
// sweeps orphan temps left by earlier crashed processes.
func (s *Store) Save(snap *Snapshot) error {
	if err := snap.Validate(); err != nil {
		return fmt.Errorf("pltstore: refusing to save: %w", err)
	}
	if s.swept.CompareAndSwap(false, true) {
		s.sweepOrphans()
	}
	path := s.Path(snap.Benchmark, snap.LearnHash)
	data := Encode(snap)
	if err := durable.AtomicWrite(s.writeFS(), s.dir, filepath.Base(path), data); err != nil {
		return fmt.Errorf("pltstore: %w", err)
	}
	s.updateIndex(indexEntry(snap, len(data)))
	return nil
}

// Load reads and fully validates the snapshot at the given address. It
// returns ErrNotFound when no file exists, a *FormatError for malformed or
// corrupt bytes, ErrMismatch for a file whose header identity disagrees with
// the address, and core.ErrBadState-wrapped errors for semantically invalid
// learner state. Only a nil error means the snapshot is safe to import.
func (s *Store) Load(bench string, learnHash uint64) (*Snapshot, error) {
	snap, err := s.LoadPath(s.Path(bench, learnHash))
	if err == nil && snap.Benchmark != bench {
		return nil, fmt.Errorf("%w: snapshot for %s/%016x describes %s", ErrMismatch, bench, learnHash, snap.Benchmark)
	}
	return snap, err
}

// Nearest returns the closest transfer-eligible donor snapshot in the given
// sweep family (see NearestDonor) among the store's fully validated
// snapshots. Snapshots are considered in path order (List is
// lexicographic), so the choice is deterministic whatever order the files
// were written in. Returns ErrNotFound when no eligible donor exists —
// callers count that as a rejected/unavailable transfer and start cold.
func (s *Store) Nearest(family uint64, recip transfer.Coords) (*Snapshot, error) {
	snaps, err := s.LoadAll()
	if err != nil {
		return nil, err
	}
	if best := NearestDonor(snaps, family, recip); best != nil {
		return best, nil
	}
	return nil, ErrNotFound
}

// LoadAll returns every snapshot in the store that loads and validates, in
// path order; unreadable or invalid files are skipped.
func (s *Store) LoadAll() ([]*Snapshot, error) {
	paths, err := s.List("")
	if err != nil {
		return nil, err
	}
	var snaps []*Snapshot
	for _, p := range paths {
		if snap, err := s.LoadPath(p); err == nil {
			snaps = append(snaps, snap)
		}
	}
	return snaps, nil
}

// LoadPath reads and fully validates the snapshot at an explicit store path
// (as returned by List), with the same guarantees as Load: size cap,
// checksum-first structural decode, semantic validation, and the transplant
// check that the filename agrees with the self-described identity. Only a
// nil error means the snapshot is safe to import.
func (s *Store) LoadPath(path string) (*Snapshot, error) {
	data, err := s.fsys.ReadFile(path)
	if err != nil {
		if errors.Is(err, iofs.ErrNotExist) {
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("pltstore: %w", err)
	}
	return s.verify(path, data)
}

// verify is the oracle every read and import goes through: size cap,
// checksum-first structural decode, the transplant check that path is the
// address the snapshot's own identity names, and semantic validation.
func (s *Store) verify(path string, data []byte) (*Snapshot, error) {
	if int64(len(data)) > MaxSnapshotBytes {
		return nil, fmt.Errorf("%w: %d bytes > %d", ErrOversize, len(data), MaxSnapshotBytes)
	}
	snap, err := Decode(data)
	if err != nil {
		return nil, err
	}
	if s.Path(snap.Benchmark, snap.LearnHash) != path {
		return nil, fmt.Errorf("%w: file %s describes %s/%016x",
			ErrMismatch, filepath.Base(path), snap.Benchmark, snap.LearnHash)
	}
	if err := snap.Validate(); err != nil {
		return nil, err
	}
	return snap, nil
}

// List returns the snapshot file paths currently stored for bench (every
// benchmark when bench is empty), sorted by name for determinism. A missing
// store directory is an empty store, not an error.
func (s *Store) List(bench string) ([]string, error) {
	entries, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		if errors.Is(err, iofs.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("pltstore: %w", err)
	}
	prefix := ""
	if bench != "" {
		prefix = sanitize(bench) + "-"
	}
	var out []string
	for _, e := range entries {
		name := e.Name
		if e.Dir || !strings.HasSuffix(name, ".plt") {
			continue
		}
		if prefix != "" && !strings.HasPrefix(name, prefix) {
			continue
		}
		out = append(out, filepath.Join(s.dir, name))
	}
	sort.Strings(out)
	return out, nil
}
