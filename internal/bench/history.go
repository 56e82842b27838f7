package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// History is the bench-trajectory file format of the committed
// BENCH_explore.json (cmd/benchjson): the most recent data point lives
// at the stable "latest" key — which is what `make bench-gate` compares
// against — and every appended point accumulates in "history", oldest
// first. Entries are opaque JSON objects
// (cmd/benchjson's report schema; see EXPERIMENTS.md "Bench
// trajectory"), so the format survives report-schema bumps without a
// rewrite.
type History struct {
	Latest  json.RawMessage   `json:"latest"`
	History []json.RawMessage `json:"history"`
}

// HistoryCap bounds the history array: appending beyond it drops the
// oldest entries, keeping the file size pinned across years of PRs.
const HistoryCap = 100

// ParseHistory decodes a {latest, history} bench file. nil or empty
// data yields an empty History; any other document without a "latest"
// key is an error, so an append never writes over a file it cannot
// read.
func ParseHistory(data []byte) (*History, error) {
	if len(bytes.TrimSpace(data)) == 0 {
		return &History{}, nil
	}
	h := &History{}
	if err := json.Unmarshal(data, h); err != nil {
		return nil, fmt.Errorf("bench: parse history: %w", err)
	}
	if h.Latest == nil {
		return nil, fmt.Errorf("bench: parse history: no \"latest\" key")
	}
	return h, nil
}

// Append adds entry as the new latest data point, retiring overflow
// beyond HistoryCap, and returns the updated History.
func (h *History) Append(entry json.RawMessage) *History {
	h.Latest = entry
	h.History = append(h.History, entry)
	if n := len(h.History); n > HistoryCap {
		h.History = append([]json.RawMessage(nil), h.History[n-HistoryCap:]...)
	}
	return h
}

// Encode renders the history file as indented JSON with a trailing
// newline, BENCH_explore.json's on-disk form.
func (h *History) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(h, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("bench: encode history: %w", err)
	}
	return append(data, '\n'), nil
}

// AppendHistory is the one-shot form: parse existing (possibly
// empty), append entry, re-encode.
func AppendHistory(existing, entry []byte) ([]byte, error) {
	if !json.Valid(entry) {
		return nil, fmt.Errorf("bench: appended entry is not valid JSON")
	}
	h, err := ParseHistory(existing)
	if err != nil {
		return nil, err
	}
	return h.Append(json.RawMessage(bytes.TrimSpace(entry))).Encode()
}
