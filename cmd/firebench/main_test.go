package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRejectsNegativeSizes: a negative -requests, -faults or -concurrency
// is a usage error (exit 2) naming the flag, and no experiment runs.
func TestRejectsNegativeSizes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-experiment", "chaos", "-requests", "-3", "-faults", "1"}, "-requests"},
		{[]string{"-experiment", "table3", "-requests", "-5"}, "-requests"},
		{[]string{"-experiment", "table4", "-faults", "-1"}, "-faults"},
		{[]string{"-experiment", "fig7", "-concurrency", "-2"}, "-concurrency"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr.String(), tc.flag+" must not be negative") {
			t.Errorf("%v: stderr %q does not name %s", tc.args, stderr.String(), tc.flag)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed output despite the usage error:\n%s", tc.args, stdout.String())
		}
	}
}

// TestZeroSizesAndSerialParallelAccepted: zero sizes select the harness
// defaults and -parallel <= 1 means serial; neither is a usage error.
func TestZeroSizesAndSerialParallelAccepted(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-list", "-requests", "0", "-faults", "0", "-concurrency", "0", "-parallel", "-1"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "table2") {
		t.Fatalf("-list output missing table2:\n%s", stdout.String())
	}
}

// TestUsageErrors: unknown experiments and unknown flags exit 2.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-experiment", "nope"},
		{"-no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
