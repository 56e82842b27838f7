package store_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/campaign"
)

// writerRounds is how many rounds the concurrent-writer tests race two
// writers of one file. With one shared temporary file per target, as
// before every write had its own, 2,000 rounds tore the file or failed
// a writer in most rounds.
const writerRounds = 2000

// race runs a and b at once and waits for both.
func race(a, b func()) {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, f := range []func(){a, b} {
		wg.Add(1)
		go func(f func()) {
			defer wg.Done()
			<-start
			f()
		}(f)
	}
	close(start)
	wg.Wait()
}

// TestConcurrentJobFileWriters races two writers of one job file, as a
// job's cancel and its runner both persist status.json: no write may
// fail, and every read must decode to one of the two contents.
func TestConcurrentJobFileWriters(t *testing.T) {
	s := open(t)
	id, err := s.CreateJob()
	if err != nil {
		t.Fatal(err)
	}
	long := fmt.Sprintf(`{"state":"running","detail":%q}`+"\n", strings.Repeat("x", 4096))
	short := `{"state":"cancelled"}` + "\n"
	for round := 0; round < writerRounds; round++ {
		var errA, errB error
		race(func() { errA = s.WriteJobFile(id, "status.json", []byte(long)) },
			func() { errB = s.WriteJobFile(id, "status.json", []byte(short)) })
		if errA != nil || errB != nil {
			t.Fatalf("round %d: writers failed: %v, %v", round, errA, errB)
		}
		data, err := s.ReadJobFile(id, "status.json")
		if err != nil {
			t.Fatal(err)
		}
		var v map[string]any
		if err := json.Unmarshal(data, &v); err != nil || (string(data) != long && string(data) != short) {
			t.Fatalf("round %d: status.json is neither write (%d bytes, decode error %v)", round, len(data), err)
		}
	}
}

// TestConcurrentArtifactPuts races two jobs storing the same new
// bundle: both must get the key, and the stored blob must be whole.
func TestConcurrentArtifactPuts(t *testing.T) {
	s := open(t)
	for round := 0; round < writerRounds; round++ {
		blob := []byte(fmt.Sprintf(`{"round":%d,"pad":%q}`, round, strings.Repeat("y", 2048)))
		var keyA, keyB string
		var errA, errB error
		race(func() { keyA, errA = s.PutRawArtifact(blob) },
			func() { keyB, errB = s.PutRawArtifact(blob) })
		if errA != nil || errB != nil || keyA != keyB {
			t.Fatalf("round %d: puts returned %q, %v and %q, %v", round, keyA, errA, keyB, errB)
		}
		data, err := s.Artifact(keyA)
		if err != nil || string(data) != string(blob) {
			t.Fatalf("round %d: stored blob is %d bytes (%v), want %d", round, len(data), err, len(blob))
		}
	}
}

// TestLeftoverTempIgnored: a crash between creating a write's temporary
// file and renaming it leaves a torn "<name>.<random>.tmp" beside the
// live file. Nothing sweeps it, so every reader must ignore it.
func TestLeftoverTempIgnored(t *testing.T) {
	s := open(t)
	id, err := s.CreateJob()
	if err != nil {
		t.Fatal(err)
	}
	status := []byte(`{"state":"queued"}`)
	if err := s.WriteJobFile(id, "status.json", status); err != nil {
		t.Fatal(err)
	}
	key, err := s.PutRawArtifact([]byte(`{"ok":true}`))
	if err != nil {
		t.Fatal(err)
	}
	stateDir, err := s.StateDir(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		t.Fatal(err)
	}
	cp := &campaign.Checkpoint{Version: 2, Identity: campaign.Identity{BaseSeed: 3}, State: campaign.State{NextIdx: 4, Runs: 4}}
	if err := campaign.WriteCheckpoint(stateDir, cp); err != nil {
		t.Fatal(err)
	}
	jobDir := filepath.Join(s.Root(), "jobs", id)
	torn := []byte(`{"state":"runn`)
	for _, path := range []string{
		filepath.Join(jobDir, "status.json.123456789.tmp"),
		filepath.Join(s.Root(), "jobs", "job-000002.json.42.tmp"),
		filepath.Join(s.Root(), "artifacts", key+".json.987654321.tmp"),
		filepath.Join(s.Root(), "artifacts", strings.Repeat("0", 64)+".json.5.tmp"),
		campaign.CheckpointPath(stateDir) + ".555.tmp",
	} {
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if data, err := s.ReadJobFile(id, "status.json"); err != nil || string(data) != string(status) {
		t.Fatalf("status.json reads %q (%v), want %q", data, err, status)
	}
	if ids, err := s.JobIDs(); err != nil || len(ids) != 1 || ids[0] != id {
		t.Fatalf("JobIDs = %v (%v), want [%s]", ids, err, id)
	}
	if keys, err := s.ArtifactKeys(); err != nil || len(keys) != 1 || keys[0] != key {
		t.Fatalf("ArtifactKeys = %v (%v), want [%s]", keys, err, key)
	}
	if got, err := campaign.LoadCheckpoint(stateDir); err != nil || got == nil || got.State.Runs != 4 {
		t.Fatalf("LoadCheckpoint = %+v (%v), want the live checkpoint", got, err)
	}
	// The next allocation is not confused by the leftover either.
	if next, err := s.CreateJob(); err != nil || next != "job-000002" {
		t.Fatalf("CreateJob = %s (%v), want job-000002", next, err)
	}
}
