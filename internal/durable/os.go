package durable

import (
	"errors"
	"os"
	"runtime"
	"syscall"
	"time"
)

// OS returns the production FS: real files, real fsync.
func OS() FS { return osFS{} }

type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(path string) error             { return os.Remove(path) }

// SyncDir fsyncs the directory so a preceding rename survives a crash. Some
// filesystems (and all of Windows) cannot fsync a directory; those errors are
// swallowed — the rename is still atomic, we just lose the stronger
// "name durable before return" guarantee where the platform cannot give it.
func (osFS) SyncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) || errors.Is(err, syscall.ENOTTY) {
			return nil
		}
		return err
	}
	return nil
}

func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (osFS) Touch(path string) error {
	now := time.Now()
	return os.Chtimes(path, now, now)
}

func (osFS) ReadDir(dir string) ([]DirEntry, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make([]DirEntry, 0, len(ents))
	for _, e := range ents {
		de := DirEntry{Name: e.Name(), Dir: e.IsDir()}
		if !e.IsDir() {
			if info, err := e.Info(); err == nil {
				de.Size = info.Size()
			}
		}
		out = append(out, de)
	}
	return out, nil
}

func (osFS) Stat(path string) (DirEntry, error) {
	info, err := os.Stat(path)
	if err != nil {
		return DirEntry{}, err
	}
	return DirEntry{Name: info.Name(), Dir: info.IsDir(), Size: info.Size()}, nil
}
