package durable_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/durable"
)

// leftovers lists the temporary files WriteFile left in dir.
func leftovers(t *testing.T, dir string) []string {
	t.Helper()
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	return tmps
}

// perm is the permission bits of the file at path.
func perm(t *testing.T, path string) os.FileMode {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Mode().Perm()
}

// writeFilePerm is the mode os.WriteFile gives a new 0644 file in dir
// under the current umask.
func writeFilePerm(t *testing.T, dir string) os.FileMode {
	t.Helper()
	ref := filepath.Join(dir, "ref")
	if err := os.WriteFile(ref, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	defer os.Remove(ref)
	return perm(t, ref)
}

func TestWriteFileReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.json")
	for _, data := range []string{`{"v":1}`, `{"v":22}`, ``} {
		if err := durable.WriteFile(path, []byte(data)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != data {
			t.Fatalf("read back %q (%v), want %q", got, err, data)
		}
		if got, want := perm(t, path), writeFilePerm(t, dir); got != want {
			t.Fatalf("mode %v, want %v as os.WriteFile gives", got, want)
		}
	}
	if tmps := leftovers(t, dir); len(tmps) != 0 {
		t.Fatalf("temporary files left behind: %v", tmps)
	}
	if err := durable.WriteFile(filepath.Join(dir, "missing", "f.json"), nil); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

// TestWriteFileFaultAtEachStep fails one write at each step in turn. A
// failure up to the rename leaves the old contents and no temporary
// file; a failure of the directory sync comes after the rename, so the
// new contents are in place, and the caller still sees the error.
func TestWriteFileFaultAtEachStep(t *testing.T) {
	injected := errors.New("injected")
	for step := durable.Write; step <= durable.SyncDir; step++ {
		t.Run(step.String(), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "f.json")
			if err := durable.WriteFile(path, []byte("old")); err != nil {
				t.Fatal(err)
			}
			var seen []durable.Step
			restore := durable.SetFault(func(p string, s durable.Step) error {
				if p != path {
					t.Errorf("hook saw path %q, want the target %q", p, path)
				}
				seen = append(seen, s)
				if s == step {
					return injected
				}
				return nil
			})
			err := durable.WriteFile(path, []byte("new"))
			restore()
			if !errors.Is(err, injected) {
				t.Fatalf("WriteFile returned %v, want the injected error", err)
			}
			if len(seen) != int(step)+1 || seen[step] != step {
				t.Fatalf("hook saw steps %v, want every step up to %v", seen, step)
			}
			want := "old"
			if step == durable.SyncDir {
				want = "new"
			}
			if got, err := os.ReadFile(path); err != nil || string(got) != want {
				t.Fatalf("after a fault at %v the file reads %q (%v), want %q", step, got, err, want)
			}
			if tmps := leftovers(t, dir); len(tmps) != 0 {
				t.Fatalf("temporary files left behind: %v", tmps)
			}
			// The restored hook is gone: the next write goes through.
			if err := durable.WriteFile(path, []byte("next")); err != nil {
				t.Fatal(err)
			}
		})
	}
}
