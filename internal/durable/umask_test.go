//go:build unix

package durable_test

import (
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/durable"
)

// TestWriteFileUmask: under a restrictive umask a written file is as
// private as os.WriteFile would make it, not world-readable.
func TestWriteFileUmask(t *testing.T) {
	defer syscall.Umask(syscall.Umask(0o077))
	dir := t.TempDir()
	path := filepath.Join(dir, "f.json")
	if err := durable.WriteFile(path, []byte("{}")); err != nil {
		t.Fatal(err)
	}
	if got := perm(t, path); got != 0o600 || got != writeFilePerm(t, dir) {
		t.Fatalf("mode %v under umask 077, want 0600", got)
	}
}
