package main

import "testing"

func TestCheckSizes(t *testing.T) {
	type flags struct{ n, p, k, m, v, ops, q int }
	ok := flags{n: 4, p: 2, k: 0, m: 2, v: 1, ops: 2, q: 8}
	cases := []struct {
		alg     string
		edit    func(f *flags)
		wantErr string
	}{
		{alg: "fig3"},
		{alg: "fig5"},
		{alg: "fig7"},
		{alg: "fig9"},
		{alg: "fig7", edit: func(f *flags) { f.k, f.q = 2, 0 }},
		{alg: "fig7", edit: func(f *flags) { f.n, f.ops = 0, 0 }},
		{alg: "fig3", edit: func(f *flags) { f.p, f.m, f.k = 0, 0, -1 }},
		{alg: "fig3", edit: func(f *flags) { f.n = 0 }, wantErr: "-n must be at least 1, got 0"},
		{alg: "fig3", edit: func(f *flags) { f.n = -2 }, wantErr: "-n must be at least 1, got -2"},
		{alg: "fig3", edit: func(f *flags) { f.v = 0 }, wantErr: "-v must be at least 1, got 0"},
		{alg: "fig3", edit: func(f *flags) { f.q = -1 }, wantErr: "-q must be at least 0, got -1"},
		{alg: "fig5", edit: func(f *flags) { f.v = 0 }, wantErr: "-v must be at least 1, got 0"},
		{alg: "fig5", edit: func(f *flags) { f.n = 0 }, wantErr: "-n must be at least 1, got 0"},
		{alg: "fig5", edit: func(f *flags) { f.ops = 0 }, wantErr: "-ops must be at least 1, got 0"},
		{alg: "fig7", edit: func(f *flags) { f.v = 0 }, wantErr: "-v must be at least 1, got 0"},
		{alg: "fig9", edit: func(f *flags) { f.v = 0 }, wantErr: "-v must be at least 1, got 0"},
		{alg: "fig7", edit: func(f *flags) { f.p, f.k = 0, 1 }, wantErr: "-p must be at least 1, got 0"},
		{alg: "fig7", edit: func(f *flags) { f.p, f.k = -1, -3 }, wantErr: "-p must be at least 1, got -1"},
		{alg: "fig7", edit: func(f *flags) { f.m = 0 }, wantErr: "-m must be at least 1, got 0"},
		{alg: "fig9", edit: func(f *flags) { f.k = -1 }, wantErr: "-k must be at least 0, got -1"},
		{alg: "fig9", edit: func(f *flags) { f.k = 3 }, wantErr: "-k must be at most -p (2), got 3"},
	}
	for _, tc := range cases {
		f := ok
		if tc.edit != nil {
			tc.edit(&f)
		}
		err := checkSizes(tc.alg, f.n, f.p, f.k, f.m, f.v, f.ops, f.q)
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != tc.wantErr {
			t.Errorf("checkSizes(%s, %+v) = %v, want %q", tc.alg, f, err, tc.wantErr)
		}
	}
}
