package bench_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/bench"
)

// compact normalizes JSON for comparison: history entries keep their
// meaning, not their whitespace, across encode/parse round trips.
func compact(t *testing.T, data []byte) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, data); err != nil {
		t.Fatalf("invalid JSON %q: %v", data, err)
	}
	return buf.String()
}

func TestParseHistoryEmpty(t *testing.T) {
	for _, data := range [][]byte{nil, {}, []byte("  \n")} {
		h, err := bench.ParseHistory(data)
		if err != nil {
			t.Fatalf("empty input rejected: %v", err)
		}
		if h.Latest != nil || len(h.History) != 0 {
			t.Fatalf("empty input produced non-empty history: %+v", h)
		}
	}
}

func TestParseHistoryRejectsBareReport(t *testing.T) {
	// A document without a "latest" key is not a history. Reading it as
	// an empty one would let the next append write over the file.
	for _, data := range []string{
		`{"schema": 3, "go": "go1.23", "explore": {"schedules_per_sec": 100}}`,
		`{"history": [{"run": 1}]}`,
		`{}`,
	} {
		if h, err := bench.ParseHistory([]byte(data)); err == nil {
			t.Errorf("ParseHistory(%s) = %+v, want an error", data, h)
		}
		if _, err := bench.AppendHistory([]byte(data), []byte(`{"run":2}`)); err == nil {
			t.Errorf("AppendHistory over %s succeeded, want an error", data)
		}
	}
}

func TestAppendHistoryRoundTrip(t *testing.T) {
	var file []byte
	var err error
	for i := 1; i <= 3; i++ {
		file, err = bench.AppendHistory(file, []byte(fmt.Sprintf(`{"schema":3,"run":%d}`, i)))
		if err != nil {
			t.Fatal(err)
		}
	}
	h, err := bench.ParseHistory(file)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.History) != 3 {
		t.Fatalf("%d history entries, want 3", len(h.History))
	}
	if compact(t, h.Latest) != `{"schema":3,"run":3}` {
		t.Fatalf("latest is %s", h.Latest)
	}
	if compact(t, h.History[0]) != `{"schema":3,"run":1}` {
		t.Fatalf("history[0] is %s", h.History[0])
	}
}

func TestAppendHistoryCap(t *testing.T) {
	h := &bench.History{}
	for i := 0; i < bench.HistoryCap+10; i++ {
		h.Append(json.RawMessage(fmt.Sprintf(`{"run":%d}`, i)))
	}
	if len(h.History) != bench.HistoryCap {
		t.Fatalf("history grew to %d, cap is %d", len(h.History), bench.HistoryCap)
	}
	if string(h.History[0]) != `{"run":10}` {
		t.Fatalf("oldest retained entry is %s, want run 10", h.History[0])
	}
	if string(h.Latest) != fmt.Sprintf(`{"run":%d}`, bench.HistoryCap+9) {
		t.Fatalf("latest is %s", h.Latest)
	}
}

func TestAppendHistoryRejectsInvalidEntry(t *testing.T) {
	if _, err := bench.AppendHistory(nil, []byte("{broken")); err == nil {
		t.Fatal("invalid JSON entry accepted")
	}
}

func TestEncodeIsParseable(t *testing.T) {
	h := &bench.History{}
	h.Append(json.RawMessage(`{"a":1}`))
	data, err := h.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := bench.ParseHistory(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.History) != 1 || compact(t, back.Latest) != `{"a":1}` {
		t.Fatalf("encode/parse round trip mismatch: %s", back.Latest)
	}
}
