package main

import (
	"strings"
	"testing"
)

// TestWorstGates drives the suite gates of `apstat -all -worstcase` on
// hand-made rows: each failure names the app or the figure, and a 0-bound
// app leaves the geomean where it was.
func TestWorstGates(t *testing.T) {
	ok := worstRow{app: "A", witness: 10, canon: 8, gap: 2, sound: true}
	for _, tc := range []struct {
		name string
		rows []worstRow
		want string // substring of the error; "" means the gates pass
	}{
		{"clean", []worstRow{ok, {app: "B", witness: 5, canon: 5, gap: 1, sound: true}}, ""},
		{"unsound", []worstRow{ok, {app: "PEN", witness: 9, canon: 9, gap: 0.9, sound: false}}, "PEN: a replay exceeded"},
		{"weak witness", []worstRow{ok, {app: "Snort", witness: 7, canon: 8, gap: 3, sound: true}}, "Snort: witness peak 7 below the canonical input's 8"},
		{"above the ceiling", []worstRow{{app: "A", witness: 1, canon: 1, gap: 4.01, sound: true}}, "gap geomean 4.010 exceeds ceiling 4.0"},
		// A 0-bound app has gap 0 and counts as 1: √15 passes, √17 does not.
		{"zero bound is neutral", []worstRow{{app: "A", witness: 1, canon: 1, gap: 15, sound: true}, {app: "Z", sound: true}}, ""},
		{"zero bound hides nothing", []worstRow{{app: "A", witness: 1, canon: 1, gap: 17, sound: true}, {app: "Z", sound: true}}, "gap geomean 4.123"},
	} {
		err := worstGates(tc.rows)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected failure: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want it to contain %q", tc.name, err, tc.want)
		}
	}
}
