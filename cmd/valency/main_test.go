package main

import "testing"

func TestCheckFlags(t *testing.T) {
	cases := []struct {
		alg        string
		n, p, c, q int
		wantErr    string
	}{
		{alg: "fig3", n: 2, q: 8},
		{alg: "fig3", n: 1, q: 0},
		{alg: "fig3", n: 3, p: 0, c: 0, q: 1},
		{alg: "exhaust", n: 3, p: 2, c: 2},
		{alg: "exhaust", n: 1, p: 1, c: 1, q: -1},
		{alg: "fig3", n: 0, q: 8, wantErr: "-n must be at least 1, got 0"},
		{alg: "fig3", n: 2, q: -1, wantErr: "-q must be at least 0, got -1"},
		{alg: "exhaust", n: 0, p: 2, c: 2, wantErr: "-n must be at least 1, got 0"},
		{alg: "exhaust", n: 3, p: 0, c: 2, wantErr: "-p must be at least 1, got 0"},
		{alg: "exhaust", n: 3, p: 2, c: 0, wantErr: "-c must be at least 1, got 0"},
		{alg: "exhaust", n: 3, p: -1, c: -1, wantErr: "-p must be at least 1, got -1"},
		{alg: "fig5", n: 2, q: 8, wantErr: `unknown -alg "fig5"`},
	}
	for _, tc := range cases {
		err := checkFlags(tc.alg, tc.n, tc.p, tc.c, tc.q)
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != tc.wantErr {
			t.Errorf("checkFlags(%s, n=%d p=%d c=%d q=%d) = %v, want %q", tc.alg, tc.n, tc.p, tc.c, tc.q, err, tc.wantErr)
		}
	}
}
