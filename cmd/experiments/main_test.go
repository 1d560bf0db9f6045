package main

import (
	"context"
	"io"
	"strings"
	"testing"
)

// TestRunRejectsUnknownExp: a name that is not a table or an opt-in run
// fails before anything runs, with an error naming -exp and listing the
// known names.
func TestRunRejectsUnknownExp(t *testing.T) {
	for _, exp := range []string{"bogus", "variants"} {
		var out strings.Builder
		err := run(context.Background(), []string{"-exp", exp, "-scale", "0.05"}, &out, io.Discard)
		if err == nil {
			t.Fatalf("-exp %s: no error", exp)
		}
		for _, want := range []string{"-exp", exp, "all", "table1", "ablations", "check", "obs", "chaos", "diag"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("-exp %s: error %q does not name %q", exp, err, want)
			}
		}
		if out.Len() != 0 {
			t.Errorf("-exp %s printed %q before failing", exp, out.String())
		}
	}
}

// TestRunTable1 runs one cheap known table end to end.
func TestRunTable1(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-exp", "table1", "-scale", "0.05"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"=== table1 ===", "MushRoom", "T10I4D100K", "done in"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
