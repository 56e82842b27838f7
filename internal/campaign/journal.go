// Package campaign runs durable, self-healing soak campaigns over the
// artifact workload registry: long sequences of deterministic replay
// runs whose progress survives crashes (an append-only checksummed
// write-ahead journal plus atomic checkpoint snapshots), whose stuck
// runs are cut off by per-replay watchdogs and recorded as incidents
// instead of hanging the campaign, and which degrade gracefully — not
// fatally — under memory pressure or persistent journal I/O errors.
//
// The durability contract: a campaign killed at ANY byte boundary (a
// torn journal write, a lost checkpoint rename, SIGKILL mid-run) and
// resumed from its state directory executes exactly the runs the
// interrupted campaign did not complete-and-persist, re-running at most
// the unpersisted tail. Because every run is a deterministic function
// of its index (Config.Derive), the resumed campaign's final state —
// run count, violations by index and error, repro-bundle bytes — is
// identical to an uninterrupted campaign's.
package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"time"
)

// Record is one journal entry. Type "run" records a completed run by
// index (clean, violating, or timed out); "degrade" records one
// degradation-ladder step; "note" records free-text campaign events
// (start, resume, stop). Run records are the load-bearing ones:
// recovery rebuilds the done-set from them, and applying the same run
// record twice is a no-op, so a checkpoint that overlaps the journal
// tail is harmless.
type Record struct {
	Type string `json:"type"`
	// Idx is the run index (run records).
	Idx int64 `json:"idx,omitempty"`
	// Crashed is the number of crash-stop faults the run injected.
	Crashed int `json:"crashed,omitempty"`
	// TimedOut marks a run the per-replay watchdog cut off twice; the
	// run is counted as done (an incident, not a verdict).
	TimedOut bool `json:"timed_out,omitempty"`
	// Err is the property violation the run found ("" = clean).
	Err string `json:"err,omitempty"`
	// Artifact is the path of the repro (or incident) bundle.
	Artifact string `json:"artifact,omitempty"`
	// Event is the degrade/note text.
	Event string `json:"event,omitempty"`
}

const (
	recRun     = "run"
	recDegrade = "degrade"
	recNote    = "note"
)

// envelope is the on-disk line format: the CRC-32 (IEEE) of the exact
// encoded record bytes, then the record. A torn or corrupted tail fails
// the checksum (or fails to parse, or lacks its newline) and recovery
// truncates the journal back to the last fully valid record.
type envelope struct {
	CRC string          `json:"crc"`
	Rec json.RawMessage `json:"rec"`
}

// appendRetries and appendBackoff bound the retry schedule for a failed
// journal write: appendRetries attempts with exponentially growing
// sleeps starting at appendBackoff. After the last failure the journal
// degrades to in-memory-only mode — the campaign keeps running and
// keeps correct in-memory state, it just stops being crash-safe — and
// says so loudly once.
const (
	appendRetries = 5
	appendBackoff = time.Millisecond
)

// defaultSleep paces journal write retries.
func defaultSleep(d time.Duration) {
	//repro:allow campaign journal write-retry backoff is pure I/O pacing; journal contents are a function of run outcomes alone
	time.Sleep(d)
}

// Journal is the append-only write-ahead log of campaign progress.
// Appends are serialized and written as single complete lines; the
// file is opened O_APPEND so a crash can only tear the final line,
// which recovery detects by checksum and truncates.
type Journal struct {
	mu       sync.Mutex
	path     string
	f        *os.File
	degraded bool
	lost     int
	warn     func(string)
	sleep    func(time.Duration)
}

// OpenJournal opens (or creates) the journal at path, recovering any
// existing contents: it returns every valid record in order and
// truncates the file after the last one, discarding a torn or corrupt
// tail. warn, if non-nil, receives human-readable durability warnings
// (I/O degradation, tail truncation).
func OpenJournal(path string, warn func(string)) (*Journal, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: open journal: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("campaign: read journal: %w", err)
	}
	recs, valid := scanJournal(data)
	if valid < int64(len(data)) {
		if warn != nil {
			warn(fmt.Sprintf("campaign: journal %s: discarding %d bytes of torn/corrupt tail after %d valid records",
				path, int64(len(data))-valid, len(recs)))
		}
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("campaign: truncate journal tail: %w", err)
		}
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("campaign: seek journal: %w", err)
	}
	j := &Journal{path: path, f: f, warn: warn, sleep: defaultSleep}
	return j, recs, nil
}

// scanJournal parses data line by line and returns the decoded records
// of the longest valid prefix, plus that prefix's byte length. The
// first line that is incomplete (no newline), unparsable, or fails its
// checksum ends the scan: everything from its start is tail garbage.
func scanJournal(data []byte) (recs []Record, valid int64) {
	off := int64(0)
	for int(off) < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // torn final line
		}
		line := data[off : off+int64(nl)]
		rec, ok := decodeLine(line)
		if !ok {
			break
		}
		recs = append(recs, rec)
		off += int64(nl) + 1
	}
	return recs, off
}

// decodeLine decodes and checksums one journal line.
func decodeLine(line []byte) (Record, bool) {
	var env envelope
	if err := json.Unmarshal(line, &env); err != nil {
		return Record{}, false
	}
	var crc uint32
	if _, err := fmt.Sscanf(env.CRC, "%08x", &crc); err != nil {
		return Record{}, false
	}
	if crc32.ChecksumIEEE(env.Rec) != crc {
		return Record{}, false
	}
	var rec Record
	if err := json.Unmarshal(env.Rec, &rec); err != nil {
		return Record{}, false
	}
	return rec, true
}

// encodeLine renders rec as one checksummed journal line (newline
// included).
func encodeLine(rec Record) ([]byte, error) {
	recJSON, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	line, err := json.Marshal(envelope{
		CRC: fmt.Sprintf("%08x", crc32.ChecksumIEEE(recJSON)),
		Rec: recJSON,
	})
	if err != nil {
		return nil, err
	}
	return append(line, '\n'), nil
}

// Append appends one record with a single write(2). It does not sync:
// once Append returns, a process kill loses nothing, but a power loss
// can lose the records written since the last checkpoint (Close, and
// only Close, syncs the journal), which a resume simply re-runs. A
// failed write is retried with bounded exponential backoff; if every
// retry fails the journal degrades to in-memory-only mode (Degraded
// reports true, the record and all subsequent ones are counted in
// Lost) and the campaign continues without crash-safety rather than
// dying. Append never returns an error: campaign progress must not
// hinge on the disk.
func (j *Journal) Append(rec Record) {
	line, err := encodeLine(rec)
	if err != nil {
		// A record that cannot be encoded is a programming error.
		panic(fmt.Sprintf("campaign: encode journal record: %v", err))
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.degraded {
		j.lost++
		return
	}
	for attempt := 0; ; attempt++ {
		_, err = j.f.Write(line)
		if err == nil {
			return
		}
		if attempt+1 >= appendRetries {
			break
		}
		j.sleep(appendBackoff << attempt)
	}
	j.degraded = true
	j.lost++
	if j.warn != nil {
		j.warn(fmt.Sprintf("campaign: journal %s: write failed after %d attempts (%v); DEGRADED to in-memory-only mode — progress is no longer crash-safe",
			j.path, appendRetries, err))
	}
}

// Degraded reports whether the journal gave up on persistence after
// repeated I/O errors.
func (j *Journal) Degraded() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.degraded
}

// Lost is the number of records not persisted because of degradation.
func (j *Journal) Lost() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lost
}

// Sync flushes the journal to stable storage.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.degraded {
		return nil
	}
	return j.f.Sync()
}

// Compact empties the journal after its contents have been absorbed
// into a durably written checkpoint. If the truncate fails the journal
// keeps its contents (recovery re-applies them idempotently on top of
// the checkpoint, so an over-long journal is only a cost, never a
// correctness problem).
func (j *Journal) Compact() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.degraded {
		return
	}
	if err := j.f.Truncate(0); err != nil {
		return
	}
	j.f.Seek(0, 0)
}

// Close syncs and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
