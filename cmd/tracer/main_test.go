package main

import "testing"

func TestCheckFlags(t *testing.T) {
	cases := []struct {
		fig     string
		q       int
		wantErr string
	}{
		{fig: "both", q: 8},
		{fig: "1a", q: 0},
		{fig: "1b", q: 1},
		{fig: "3", q: 8, wantErr: `unknown -fig "3" (want 1a, 1b or both)`},
		{fig: "", q: 8, wantErr: `unknown -fig "" (want 1a, 1b or both)`},
		{fig: "both", q: -1, wantErr: "-q must be at least 0, got -1"},
		{fig: "1a", q: -8, wantErr: "-q must be at least 0, got -8"},
	}
	for _, tc := range cases {
		got := ""
		if err := checkFlags(tc.fig, tc.q); err != nil {
			got = err.Error()
		}
		if got != tc.wantErr {
			t.Errorf("checkFlags(%q, %d) = %q, want %q", tc.fig, tc.q, got, tc.wantErr)
		}
	}
}
