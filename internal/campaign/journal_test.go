package campaign

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// testRecords is a small, varied record stream for recovery tests.
func testRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Type: recRun, Idx: int64(i), Crashed: i % 3}
		if i%5 == 3 {
			recs[i].Err = fmt.Sprintf("violation at %d", i)
			recs[i].Artifact = fmt.Sprintf("artifacts/bundle-%d.json", i)
		}
		if i%7 == 5 {
			recs[i] = Record{Type: recDegrade, Event: fmt.Sprintf("step %d", i)}
		}
	}
	return recs
}

// writeJournal writes recs to a fresh journal and returns the file
// bytes and the per-record end offsets.
func writeJournal(t *testing.T, dir string, recs []Record) (data []byte, ends []int64) {
	t.Helper()
	path := filepath.Join(dir, "journal.wal")
	j, got, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("fresh journal recovered %d records", len(got))
	}
	off := int64(0)
	for _, rec := range recs {
		j.Append(rec)
		line, err := encodeLine(rec)
		if err != nil {
			t.Fatal(err)
		}
		off += int64(len(line))
		ends = append(ends, off)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != off {
		t.Fatalf("journal is %d bytes, expected %d", len(data), off)
	}
	return data, ends
}

// recoverPrefix writes prefix to a fresh file and runs recovery.
func recoverPrefix(t *testing.T, dir, name string, prefix []byte) (*Journal, []Record) {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, prefix, 0o644); err != nil {
		t.Fatal(err)
	}
	j, recs, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatalf("OpenJournal(%s): %v", name, err)
	}
	return j, recs
}

// TestJournalKillPoints is the fault-injection suite of the journal's
// crash contract: for EVERY byte prefix of a journal file — every
// possible point a crash or torn write could leave it at — recovery
// returns exactly the records whose lines are fully contained in the
// prefix, truncates the garbage, and the journal accepts new appends
// that survive a further reopen.
func TestJournalKillPoints(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords(12)
	data, ends := writeJournal(t, dir, recs)

	wantAt := func(n int64) []Record {
		var want []Record
		for i, end := range ends {
			if end <= n {
				want = recs[:i+1]
			}
		}
		return want
	}

	for n := int64(0); n <= int64(len(data)); n++ {
		name := fmt.Sprintf("kill-%d.wal", n)
		j, got, err := func() (*Journal, []Record, error) {
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, data[:n], 0o644); err != nil {
				t.Fatal(err)
			}
			return OpenJournal(path, nil)
		}()
		if err != nil {
			t.Fatalf("kill at byte %d: recovery failed: %v", n, err)
		}
		want := wantAt(n)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("kill at byte %d: recovered %d records, want %d", n, len(got), len(want))
		}
		// The recovered journal must keep working: append one record,
		// reopen, and see the recovered prefix plus the new record.
		extra := Record{Type: recRun, Idx: 1000 + n}
		j.Append(extra)
		if err := j.Close(); err != nil {
			t.Fatalf("kill at byte %d: close: %v", n, err)
		}
		_, again, err := OpenJournal(filepath.Join(dir, name), nil)
		if err != nil {
			t.Fatalf("kill at byte %d: reopen: %v", n, err)
		}
		if !reflect.DeepEqual(again, append(append([]Record(nil), want...), extra)) {
			t.Fatalf("kill at byte %d: append after recovery lost records", n)
		}
		os.Remove(filepath.Join(dir, name))
	}
}

// TestJournalCorruptTail: bit corruption inside the final record (not
// just truncation) fails its checksum and drops exactly that record.
func TestJournalCorruptTail(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords(8)
	data, ends := writeJournal(t, dir, recs)

	lastStart := ends[len(ends)-2]
	for off := lastStart; off < int64(len(data))-1; off++ {
		corrupted := append([]byte(nil), data...)
		corrupted[off] ^= 0x20
		_, got := recoverPrefix(t, dir, "corrupt.wal", corrupted)
		// Either the final record is dropped (checksum/parse failure) or
		// — when the flip lands in ignorable JSON whitespace — recovery
		// may still accept it; it must never return garbage or fewer
		// than the intact prefix.
		if len(got) < len(recs)-1 || len(got) > len(recs) {
			t.Fatalf("flip at byte %d: recovered %d records, want %d or %d", off, len(got), len(recs)-1, len(recs))
		}
		if !reflect.DeepEqual(got[:len(recs)-1], recs[:len(recs)-1]) {
			t.Fatalf("flip at byte %d: intact prefix corrupted", off)
		}
		if len(got) == len(recs) && !reflect.DeepEqual(got[len(recs)-1], recs[len(recs)-1]) {
			t.Fatalf("flip at byte %d: accepted a corrupted record", off)
		}
	}

	// Garbage appended after valid records is discarded entirely.
	garbage := append(append([]byte(nil), data...), []byte("{\"crc\":\"zz")...)
	_, got := recoverPrefix(t, dir, "garbage.wal", garbage)
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("garbage tail: recovered %d records, want %d", len(got), len(recs))
	}
}

// TestJournalConcurrentAppend: concurrent appends (exercised under
// -race in CI) are serialized; every record survives a reopen intact.
func TestJournalConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.wal")
	j, _, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	const workers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				j.Append(Record{Type: recRun, Idx: int64(w*each + i), Crashed: w})
			}
		}(w)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(recs) != workers*each {
		t.Fatalf("recovered %d records, want %d", len(recs), workers*each)
	}
	seen := make(map[int64]bool)
	for _, rec := range recs {
		if seen[rec.Idx] {
			t.Fatalf("record %d recovered twice", rec.Idx)
		}
		seen[rec.Idx] = true
		if rec.Crashed != int(rec.Idx)/each {
			t.Fatalf("record %d interleaved with another append: crashed=%d", rec.Idx, rec.Crashed)
		}
	}
}

// TestJournalDegradesOnIOError: persistent write failures degrade the
// journal to in-memory-only mode with a single loud warning instead of
// failing the campaign; earlier records stay recoverable.
func TestJournalDegradesOnIOError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.wal")
	j, _, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	var warnings []string
	j.warn = func(msg string) { warnings = append(warnings, msg) }
	slept := 0
	j.sleep = func(time.Duration) { slept++ }

	j.Append(Record{Type: recRun, Idx: 0})
	j.f.Close() // every subsequent write fails

	j.Append(Record{Type: recRun, Idx: 1})
	if !j.Degraded() {
		t.Fatal("journal not degraded after persistent write failure")
	}
	if slept != appendRetries-1 {
		t.Fatalf("backoff slept %d times, want %d", slept, appendRetries-1)
	}
	if len(warnings) != 1 || !bytes.Contains([]byte(warnings[0]), []byte("DEGRADED")) {
		t.Fatalf("want one loud degradation warning, got %q", warnings)
	}

	// Degraded mode: appends are counted, not retried, and no new
	// warnings pile up.
	j.Append(Record{Type: recRun, Idx: 2})
	if j.Lost() != 2 || len(warnings) != 1 || slept != appendRetries-1 {
		t.Fatalf("degraded append: lost=%d warnings=%d slept=%d", j.Lost(), len(warnings), slept)
	}

	// The record persisted before the failure is still recoverable.
	_, recs, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Idx != 0 {
		t.Fatalf("recovered %v, want the one pre-failure record", recs)
	}
}

// TestCheckpointAtomicity: a checkpoint write is all-or-nothing — the
// temp file never survives, and a rename either installs the complete
// new snapshot or leaves the old one.
func TestCheckpointAtomicity(t *testing.T) {
	dir := t.TempDir()
	old := &Checkpoint{Version: checkpointVersion, Identity: Identity{BaseSeed: 1},
		State: State{NextIdx: 5, Runs: 5}}
	if err := WriteCheckpoint(dir, old); err != nil {
		t.Fatal(err)
	}
	next := &Checkpoint{Version: checkpointVersion, Identity: Identity{BaseSeed: 1},
		State: State{NextIdx: 9, Runs: 9}}
	if err := WriteCheckpoint(dir, next); err != nil {
		t.Fatal(err)
	}
	if tmps, _ := filepath.Glob(CheckpointPath(dir) + ".*.tmp"); len(tmps) != 0 {
		t.Fatalf("temp checkpoint left behind: %v", tmps)
	}
	got, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, next) {
		t.Fatalf("loaded %+v, want %+v", got, next)
	}
}

// TestStateMarkDone: the done-set absorbs out-of-order completions into
// the contiguous prefix and rejects duplicates.
func TestStateMarkDone(t *testing.T) {
	var s State
	for _, idx := range []int64{0, 2, 4, 3, 1} {
		if !s.markDone(idx) {
			t.Fatalf("markDone(%d) = false on first completion", idx)
		}
	}
	if s.NextIdx != 5 || len(s.Extras) != 0 || s.Runs != 5 {
		t.Fatalf("state after 0..4: %+v", s)
	}
	for _, idx := range []int64{0, 3, 4} {
		if s.markDone(idx) {
			t.Fatalf("markDone(%d) accepted a duplicate", idx)
		}
	}
	if s.Runs != 5 {
		t.Fatalf("duplicates changed Runs: %d", s.Runs)
	}
	s.markDone(10)
	if s.NextIdx != 5 || !reflect.DeepEqual(s.Extras, []int64{10}) {
		t.Fatalf("sparse completion mishandled: %+v", s)
	}
}
