package main

import (
	"strings"
	"testing"
)

// TestCheckFlags holds the systems with no checkpointed phase to refusing
// -checkpoint and crash plans, and lets spap and all take both.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		system     string
		checkpoint bool
		crashRate  float64
		want       string // substring of the error; "" means accepted
	}{
		{"ap", false, 0, ""},
		{"apcpu", false, 0, ""},
		{"ap", true, 0, "-checkpoint needs -system spap or all: the ap system"},
		{"apcpu", true, 0, "-checkpoint needs -system spap or all: the apcpu system"},
		{"ap", false, 0.001, "a crash= fault plan needs -system spap or all: the ap system"},
		{"apcpu", false, 0.001, "a crash= fault plan needs -system spap or all: the apcpu system"},
		{"ap", true, 0.001, "-checkpoint needs"},
		{"spap", true, 0.001, ""},
		{"all", true, 0.001, ""},
		{"spap", false, 0.001, ""},
		{"all", true, 0, ""},
	} {
		err := checkFlags(tc.system, tc.checkpoint, tc.crashRate)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%+v: unexpected refusal: %v", tc, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%+v: error %v, want it to contain %q", tc, err, tc.want)
		}
	}
}
