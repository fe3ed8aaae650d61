package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLintCorruptFileReportsEveryLine is the regression test for the
// stop-at-first-error behavior: a corrupt line used to mask every later
// problem in the file. The linter must now report each damaged line and
// keep validating past it.
func TestLintCorruptFileReportsEveryLine(t *testing.T) {
	errs := lintFile("testdata/corrupt.jsonl", "trace", false)
	if len(errs) == 0 {
		t.Fatal("corrupt file linted clean")
	}
	wants := []string{
		"line 2: invalid JSON",
		"line 3: invalid JSON",
		"line 4: seq = 4, want 2",
		"line 5: missing kind",
	}
	joined := strings.Join(errs, "\n")
	for _, w := range wants {
		if !strings.Contains(joined, w) {
			t.Errorf("missing error %q in:\n%s", w, joined)
		}
	}
	if len(errs) != len(wants) {
		t.Errorf("got %d errors, want %d:\n%s", len(errs), len(wants), joined)
	}
}

func TestLintCausality(t *testing.T) {
	// Schema-only: the file is well-formed JSONL, so without -causality
	// it lints clean.
	if errs := lintFile("testdata/causality.jsonl", "trace", false); len(errs) != 0 {
		t.Fatalf("schema-only lint found errors: %v", errs)
	}
	errs := lintFile("testdata/causality.jsonl", "trace", true)
	joined := strings.Join(errs, "\n")
	wants := []string{
		"trace 2: 0 terminal spans, want 1",
		"trace 3: req-done without req-start",
		"trace 5: orphaned trace reference",
	}
	for _, w := range wants {
		if !strings.Contains(joined, w) {
			t.Errorf("missing error %q in:\n%s", w, joined)
		}
	}
	if len(errs) != len(wants) {
		t.Errorf("got %d errors, want %d:\n%s", len(errs), len(wants), joined)
	}
	// A req-lost without a req-start (trace 4) is legal; it must not be
	// reported.
	if strings.Contains(joined, "trace 4") {
		t.Errorf("legal req-lost without start reported: %s", joined)
	}
}

// TestLintDomainRules exercises the heap-domain ordering contracts on a
// hand-corrupted trace: a discard after a commit, a discard of a domain
// never switched to, a violation whose next span is not its crash, and a
// violation dangling at end of file. The legal shapes interleaved with
// them (switch→crash→discard, a dom=0 discard, violation→crash ordering
// handled via retry spans) must stay silent.
func TestLintDomainRules(t *testing.T) {
	// Without -causality the file is plain well-formed JSONL.
	if errs := lintFile("testdata/domains.jsonl", "trace", false); len(errs) != 0 {
		t.Fatalf("schema-only lint found errors: %v", errs)
	}
	errs := lintFile("testdata/domains.jsonl", "trace", true)
	joined := strings.Join(errs, "\n")
	wants := []string{
		`seq 8: domain-discard after "commit", want crash`,
		"seq 10: domain-discard of dom 2 with no prior domain-switch",
		`seq 13: domain-violation (seq 12) followed by "retry"`,
		"seq 15: domain-violation with no following span",
	}
	for _, w := range wants {
		if !strings.Contains(joined, w) {
			t.Errorf("missing error %q in:\n%s", w, joined)
		}
	}
	if len(errs) != len(wants) {
		t.Errorf("got %d errors, want %d:\n%s", len(errs), len(wants), joined)
	}
	// The legal discards (line 5 after a crash, line 11's dom=0 empty
	// arena) must not be flagged.
	for _, legal := range []string{"seq 5", "seq 11"} {
		if strings.Contains(joined, legal+":") {
			t.Errorf("legal span reported: %s", joined)
		}
	}
}

// TestLintErrorCap keeps a thoroughly corrupt file's report readable.
func TestLintErrorCap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "storm.jsonl")
	var sb strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&sb, "garbage line %d\n", i)
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	errs := lintFile(path, "trace", false)
	if len(errs) != maxErrors+1 {
		t.Fatalf("got %d errors, want %d + summary", len(errs), maxErrors)
	}
	last := errs[len(errs)-1]
	if !strings.Contains(last, "more errors suppressed") {
		t.Errorf("no suppression summary: %q", last)
	}
}
