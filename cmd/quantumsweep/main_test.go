package main

import (
	"reflect"
	"testing"
)

func TestParseGrid(t *testing.T) {
	cases := []struct {
		grid    string
		want    []int
		wantErr bool
	}{
		{grid: "", want: nil},
		{grid: "8", want: []int{8}},
		{grid: "0, 4,16", want: []int{0, 4, 16}},
		{grid: "8,x", wantErr: true},
		{grid: "-1", wantErr: true},
		{grid: "4,-8", wantErr: true},
		{grid: "4,", wantErr: true},
		{grid: "2.5", wantErr: true},
	}
	for _, tc := range cases {
		got, err := parseGrid(tc.grid)
		if (err != nil) != tc.wantErr {
			t.Errorf("parseGrid(%q) error = %v, want error %v", tc.grid, err, tc.wantErr)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseGrid(%q) = %v, want %v", tc.grid, got, tc.want)
		}
	}
}

func TestCheckSizes(t *testing.T) {
	cases := []struct {
		p, m, v int
		wantErr string
	}{
		{p: 2, m: 3, v: 1},
		{p: 1, m: 1, v: 1},
		{p: 0, m: 3, v: 1, wantErr: "-p must be at least 1, got 0"},
		{p: 2, m: 0, v: 1, wantErr: "-m must be at least 1, got 0"},
		{p: 2, m: 3, v: 0, wantErr: "-v must be at least 1, got 0"},
		{p: -1, m: -1, v: -1, wantErr: "-p must be at least 1, got -1"},
	}
	for _, tc := range cases {
		err := checkSizes(tc.p, tc.m, tc.v)
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != tc.wantErr {
			t.Errorf("checkSizes(%d, %d, %d) = %v, want %q", tc.p, tc.m, tc.v, err, tc.wantErr)
		}
	}
}
