package durable

import (
	"errors"
	"fmt"
	iofs "io/fs"
	"path"
	"sort"
	"strings"
	"sync"
)

// ErrInjectedCrash is returned by CrashFS mutating operations once a
// FailAfter budget is exhausted, simulating the writing process dying
// mid-operation.
var ErrInjectedCrash = errors.New("durable: injected crash")

// opKind enumerates the durable operations CrashFS records. Only operations
// that change what a crash could leave on disk are logged; reads are not.
type opKind uint8

const (
	opCreate opKind = iota
	opWrite
	opSync
	opClose
	opRename
	opRemove
	opMkdir
	opSyncDir
)

var opNames = [...]string{"create", "write", "sync", "close", "rename", "remove", "mkdir", "syncdir"}

type op struct {
	kind opKind
	path string // file path (or dir for mkdir/syncdir); rename source
	to   string // rename destination
	data []byte // write payload
}

func (o op) String() string {
	if o.kind == opRename {
		return fmt.Sprintf("rename(%s → %s)", o.path, o.to)
	}
	return fmt.Sprintf("%s(%s)", opNames[o.kind], o.path)
}

// CrashFS is a deterministic in-memory FS that records every durable
// operation. Replay (CrashStates / Explore) rebuilds the on-disk state a
// real crash could leave after any prefix of the log, distinguishing bytes
// that were fsynced (durable) from bytes that only reached the page cache
// (lost, torn, or corrupted by the crash).
//
// All methods are safe for concurrent use; concurrent writers interleave in
// the log exactly as their operations interleaved in time.
type CrashFS struct {
	mu     sync.Mutex
	ops    []op
	live   map[string][]byte // current (pre-crash) content by path
	dirs   map[string]bool
	seq    int // CreateTemp uniquifier
	budget int // remaining mutating ops before injected crash; -1 = unlimited
}

// NewCrashFS returns an empty crash-recording FS.
func NewCrashFS() *CrashFS {
	return &CrashFS{live: map[string][]byte{}, dirs: map[string]bool{}, budget: -1}
}

// FailAfter arms crash injection: the next n mutating operations succeed and
// every one after that returns ErrInjectedCrash. Pass a negative n to disarm.
func (c *CrashFS) FailAfter(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget = n
}

// OpsLen returns the number of durable operations recorded so far. Use it to
// mark the start of the window a crash-exploration should cover.
func (c *CrashFS) OpsLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ops)
}

// charge consumes one unit of FailAfter budget; callers hold c.mu.
func (c *CrashFS) charge() error {
	if c.budget < 0 {
		return nil
	}
	if c.budget == 0 {
		return ErrInjectedCrash
	}
	c.budget--
	return nil
}

func (c *CrashFS) MkdirAll(dir string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.charge(); err != nil {
		return err
	}
	c.dirs[path.Clean(dir)] = true
	c.ops = append(c.ops, op{kind: opMkdir, path: path.Clean(dir)})
	return nil
}

func (c *CrashFS) CreateTemp(dir, pattern string) (File, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.charge(); err != nil {
		return nil, err
	}
	c.seq++
	name := strings.Replace(pattern, "*", fmt.Sprintf("%06d", c.seq), 1)
	if !strings.Contains(pattern, "*") {
		name = pattern + fmt.Sprintf("%06d", c.seq)
	}
	p := path.Join(dir, name)
	c.live[p] = nil
	c.ops = append(c.ops, op{kind: opCreate, path: p})
	return &crashFile{fs: c, path: p}, nil
}

func (c *CrashFS) Rename(oldpath, newpath string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.charge(); err != nil {
		return err
	}
	oldpath, newpath = path.Clean(oldpath), path.Clean(newpath)
	data, ok := c.live[oldpath]
	if !ok {
		return &iofs.PathError{Op: "rename", Path: oldpath, Err: iofs.ErrNotExist}
	}
	delete(c.live, oldpath)
	c.live[newpath] = data
	c.ops = append(c.ops, op{kind: opRename, path: oldpath, to: newpath})
	return nil
}

func (c *CrashFS) Remove(p string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.charge(); err != nil {
		return err
	}
	p = path.Clean(p)
	if _, ok := c.live[p]; !ok {
		return &iofs.PathError{Op: "remove", Path: p, Err: iofs.ErrNotExist}
	}
	delete(c.live, p)
	c.ops = append(c.ops, op{kind: opRemove, path: p})
	return nil
}

func (c *CrashFS) SyncDir(dir string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.charge(); err != nil {
		return err
	}
	c.ops = append(c.ops, op{kind: opSyncDir, path: path.Clean(dir)})
	return nil
}

func (c *CrashFS) ReadFile(p string) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	data, ok := c.live[path.Clean(p)]
	if !ok {
		return nil, &iofs.PathError{Op: "open", Path: p, Err: iofs.ErrNotExist}
	}
	return append([]byte(nil), data...), nil
}

func (c *CrashFS) ReadDir(dir string) ([]DirEntry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	dir = path.Clean(dir)
	if !c.dirs[dir] {
		// A dir exists implicitly if any live file or subdir sits under it.
		found := false
		for p := range c.live {
			if path.Dir(p) == dir || strings.HasPrefix(p, dir+"/") {
				found = true
				break
			}
		}
		for d := range c.dirs {
			if strings.HasPrefix(d, dir+"/") {
				found = true
				break
			}
		}
		if !found {
			return nil, &iofs.PathError{Op: "readdir", Path: dir, Err: iofs.ErrNotExist}
		}
	}
	seen := map[string]DirEntry{}
	for p, data := range c.live {
		if path.Dir(p) == dir {
			seen[path.Base(p)] = DirEntry{Name: path.Base(p), Size: int64(len(data))}
		} else if strings.HasPrefix(p, dir+"/") {
			rest := strings.TrimPrefix(p, dir+"/")
			sub := strings.SplitN(rest, "/", 2)[0]
			seen[sub] = DirEntry{Name: sub, Dir: true}
		}
	}
	for d := range c.dirs {
		if path.Dir(d) == dir {
			seen[path.Base(d)] = DirEntry{Name: path.Base(d), Dir: true}
		}
	}
	out := make([]DirEntry, 0, len(seen))
	for _, e := range seen {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

func (c *CrashFS) Stat(p string) (DirEntry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p = path.Clean(p)
	if data, ok := c.live[p]; ok {
		return DirEntry{Name: path.Base(p), Size: int64(len(data))}, nil
	}
	if c.dirs[p] {
		return DirEntry{Name: path.Base(p), Dir: true}, nil
	}
	return DirEntry{}, &iofs.PathError{Op: "stat", Path: p, Err: iofs.ErrNotExist}
}

// Touch checks that p exists. Modification times are not modeled, and no
// data changes, so it records no operation.
func (c *CrashFS) Touch(p string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.charge(); err != nil {
		return err
	}
	if _, ok := c.live[path.Clean(p)]; !ok {
		return &iofs.PathError{Op: "touch", Path: p, Err: iofs.ErrNotExist}
	}
	return nil
}

type crashFile struct {
	fs     *CrashFS
	path   string
	closed bool
}

func (f *crashFile) Name() string { return f.path }

func (f *crashFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.fs.charge(); err != nil {
		return 0, err
	}
	if f.closed {
		return 0, &iofs.PathError{Op: "write", Path: f.path, Err: iofs.ErrClosed}
	}
	data, ok := f.fs.live[f.path]
	if !ok {
		// Removed while open (orphan sweep racing a writer): writes go
		// nowhere durable, matching POSIX unlinked-file semantics closely
		// enough for this model.
		return len(p), nil
	}
	f.fs.live[f.path] = append(data, p...)
	f.fs.ops = append(f.fs.ops, op{kind: opWrite, path: f.path, data: append([]byte(nil), p...)})
	return len(p), nil
}

func (f *crashFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.fs.charge(); err != nil {
		return err
	}
	if f.closed {
		return &iofs.PathError{Op: "sync", Path: f.path, Err: iofs.ErrClosed}
	}
	f.fs.ops = append(f.fs.ops, op{kind: opSync, path: f.path})
	return nil
}

func (f *crashFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	f.fs.ops = append(f.fs.ops, op{kind: opClose, path: f.path})
	return nil
}
