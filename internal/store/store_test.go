package store_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/artifact"
	"repro/internal/store"
)

func open(t *testing.T) *store.Store {
	t.Helper()
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCreateJobAllocatesDenseIDs(t *testing.T) {
	s := open(t)
	for i, want := range []string{"job-000001", "job-000002", "job-000003"} {
		id, err := s.CreateJob()
		if err != nil {
			t.Fatal(err)
		}
		if id != want {
			t.Fatalf("job %d got id %s, want %s", i, id, want)
		}
	}
	// Reopening the same root continues the sequence (IDs survive
	// restarts).
	s2, err := store.Open(s.Root())
	if err != nil {
		t.Fatal(err)
	}
	id, err := s2.CreateJob()
	if err != nil {
		t.Fatal(err)
	}
	if id != "job-000004" {
		t.Fatalf("after reopen got id %s, want job-000004", id)
	}
	ids, err := s2.JobIDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 4 || ids[0] != "job-000001" || ids[3] != "job-000004" {
		t.Fatalf("JobIDs = %v", ids)
	}
}

func TestJobFilesRoundTrip(t *testing.T) {
	s := open(t)
	id, err := s.CreateJob()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteJobFile(id, "status.json", []byte(`{"state":"queued"}`)); err != nil {
		t.Fatal(err)
	}
	data, err := s.ReadJobFile(id, "status.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"state":"queued"}` {
		t.Fatalf("read back %q", data)
	}
	missing, err := s.ReadJobFile(id, "nope.json")
	if err != nil || missing != nil {
		t.Fatalf("missing file: data=%q err=%v, want nil/nil", missing, err)
	}
	if !s.HasJob(id) || s.HasJob("job-999999") {
		t.Fatal("HasJob wrong")
	}
	if err := s.RemoveJob(id); err != nil || s.HasJob(id) {
		t.Fatalf("RemoveJob: %v, job still there: %v", err, s.HasJob(id))
	}
	if err := s.RemoveJob("../etc"); err == nil {
		t.Fatal("RemoveJob accepted a malformed id")
	}
}

func TestMalformedIDsAndNamesRejected(t *testing.T) {
	s := open(t)
	for _, id := range []string{"", "job-1", "../etc", "job-00000a", "job-0000001"} {
		if err := s.WriteJobFile(id, "x.json", nil); err == nil {
			t.Errorf("malformed id %q accepted", id)
		}
		if store.ValidJobID(id) {
			t.Errorf("ValidJobID(%q) = true", id)
		}
	}
	id, err := s.CreateJob()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", "a/b.json", "../escape"} {
		if err := s.WriteJobFile(id, name, nil); err == nil {
			t.Errorf("bad file name %q accepted", name)
		}
		if _, err := s.ReadJobFile(id, name); err == nil {
			t.Errorf("bad file name %q accepted on read", name)
		}
	}
}

func TestArtifactContentAddressing(t *testing.T) {
	s := open(t)
	b, _, err := artifact.Capture(artifact.Meta{Workload: "unicons", N: 2, V: 1, Quantum: 8, MaxSteps: 1 << 18},
		artifact.Sched{Random: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	key1, err := s.PutArtifact(b)
	if err != nil {
		t.Fatal(err)
	}
	if !store.ValidArtifactKey(key1) {
		t.Fatalf("key %q not a sha256 hex string", key1)
	}
	// Same content, same key, no error (dedup).
	key2, err := s.PutArtifact(b)
	if err != nil || key2 != key1 {
		t.Fatalf("re-put: key %s err %v, want %s nil", key2, err, key1)
	}
	data, err := s.Artifact(key1)
	if err != nil || data == nil {
		t.Fatalf("fetch: %v", err)
	}
	unknown, err := s.Artifact("0000000000000000000000000000000000000000000000000000000000000000")
	if err != nil || unknown != nil {
		t.Fatalf("unknown key: data=%v err=%v, want nil/nil", unknown, err)
	}
	if _, err := s.Artifact("../../etc/passwd"); err == nil {
		t.Fatal("malformed key accepted")
	}
	keys, err := s.ArtifactKeys()
	if err != nil || len(keys) != 1 || keys[0] != key1 {
		t.Fatalf("ArtifactKeys = %v, %v", keys, err)
	}
}

func TestImportArtifact(t *testing.T) {
	s := open(t)
	b, _, err := artifact.Capture(artifact.Meta{Workload: "unicons", N: 2, V: 1, Quantum: 8, MaxSteps: 1 << 18},
		artifact.Sched{Random: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bundle.json")
	if err := b.Save(path); err != nil {
		t.Fatal(err)
	}
	key, err := s.ImportArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := s.Artifact(key)
	if err != nil || data == nil {
		t.Fatalf("imported bundle not retrievable: %v", err)
	}
	if _, err := s.ImportArtifact(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing bundle file accepted")
	}
}

func TestStateDirIsInsideJob(t *testing.T) {
	s := open(t)
	id, err := s.CreateJob()
	if err != nil {
		t.Fatal(err)
	}
	state, err := s.StateDir(id)
	if err != nil {
		t.Fatal(err)
	}
	jobRoot := filepath.Join(s.Root(), "jobs", id)
	if rel, err := filepath.Rel(jobRoot, state); err != nil || rel == ".." || filepath.IsAbs(rel) {
		t.Fatalf("dir %s escapes job root %s", state, jobRoot)
	}
	if _, err := s.StateDir("bogus"); err == nil {
		t.Fatal("malformed id accepted")
	}
}

func TestAtomicWriteLeavesNoTemp(t *testing.T) {
	s := open(t)
	id, err := s.CreateJob()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteJobFile(id, "status.json", []byte("{}")); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(s.Root(), "jobs", id))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
}
