// Package durable is how the program writes a file it reads back:
// WriteFile replaces it atomically and durably, so a crash at any point
// leaves the old contents or the new, never a torn mix. Each write goes
// through a temporary file of its own beside the target
// ("<name>.<random>.tmp"), so concurrent writers of one file need no
// lock: the last rename wins, whole. A crash before the rename can
// leave the temporary behind; nothing reads it, because every reader
// opens exact names.
package durable

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync/atomic"
)

// Step is one step of WriteFile, in order: write the temporary file,
// sync it, close it, rename it over the target, and sync the directory
// so the rename survives a power loss. A failure at SyncDir comes after
// the rename, so the new contents are in place.
type Step int

const (
	Write Step = iota
	Sync
	Close
	Rename
	SyncDir
)

func (s Step) String() string {
	return [...]string{"write", "sync", "close", "rename", "sync dir"}[s]
}

// Fault decides whether WriteFile's step on the file at path fails: a
// non-nil error fails the step as if the system had, without taking it.
type Fault func(path string, step Step) error

var fault atomic.Pointer[Fault]

// SetFault installs f as the process-wide fault hook (nil removes it)
// and returns a func that restores the previous one. It is the seam for
// crash tests; nothing outside tests arms it.
func SetFault(f Fault) (restore func()) {
	prev := fault.Swap(&f)
	return func() { fault.Store(prev) }
}

// WriteFile atomically replaces path with data. The file gets the mode
// os.WriteFile gives a new file, 0644 less the umask; a replaced file's
// own mode is not kept. On an error before the rename the temporary
// file is removed and path keeps its old contents.
func WriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := createTemp(path)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	steps := [...]func() error{
		Write: func() error {
			_, err := f.Write(data)
			return err
		},
		Sync:    f.Sync,
		Close:   f.Close,
		Rename:  func() error { return os.Rename(f.Name(), path) },
		SyncDir: func() error { return syncDir(dir) },
	}
	for i, do := range steps {
		step := Step(i)
		err := inject(path, step)
		if err == nil {
			err = do()
		}
		if err != nil {
			if step <= Close {
				f.Close()
			}
			if step <= Rename {
				os.Remove(f.Name())
			}
			return fmt.Errorf("durable: %s %s: %w", step, path, err)
		}
	}
	return nil
}

// createTemp creates path's temporary file, "<path>.<random>.tmp", with
// the mode and umask os.WriteFile would apply, drawing another name
// while the drawn one exists.
func createTemp(path string) (*os.File, error) {
	for try := 0; ; try++ {
		f, err := os.OpenFile(fmt.Sprintf("%s.%d.tmp", path, rand.Uint32()), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if !errors.Is(err, fs.ErrExist) || try == 100 {
			return f, err
		}
	}
}

func inject(path string, step Step) error {
	if f := fault.Load(); f != nil && *f != nil {
		return (*f)(path, step)
	}
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
