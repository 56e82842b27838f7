package main

import "testing"

func TestCheckExp(t *testing.T) {
	cases := []struct{ exp, wantErr string }{
		{exp: "all"},
		{exp: "e3"},
		{exp: "e4"},
		{exp: "e5"},
		{exp: "e8"},
		{exp: "e9", wantErr: `unknown -exp "e9" (want e3, e4, e5, e8 or all)`},
		{exp: "", wantErr: `unknown -exp "" (want e3, e4, e5, e8 or all)`},
		{exp: "E4", wantErr: `unknown -exp "E4" (want e3, e4, e5, e8 or all)`},
	}
	for _, tc := range cases {
		got := ""
		if err := checkExp(tc.exp); err != nil {
			got = err.Error()
		}
		if got != tc.wantErr {
			t.Errorf("checkExp(%q) = %q, want %q", tc.exp, got, tc.wantErr)
		}
	}
}
