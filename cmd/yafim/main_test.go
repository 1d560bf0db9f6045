package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"yafim"
	"yafim/internal/leaktest"
)

// TestMain doubles as the CLI when re-exec'd by -dist smoke: smoke mode
// forks os.Executable() — this test binary — with YAFIM_CLI_REEXEC set, and
// the child must behave like the real yafim command.
func TestMain(m *testing.M) {
	if os.Getenv("YAFIM_CLI_REEXEC") != "" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if err := run(ctx, os.Args[1:], io.Discard, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "yafim:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// writeDataset saves a small generated transaction file and returns its path.
func writeDataset(t *testing.T) string {
	t.Helper()
	db, err := yafim.GenDataset("MushRoom", 0.02, 2014)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mushroom.dat")
	if err := yafim.SaveFile(db, path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunMinesQuietly(t *testing.T) {
	defer leaktest.Check(t)()
	input := writeDataset(t)
	var out, errOut strings.Builder
	err := run(context.Background(),
		[]string{"-input", input, "-support", "0.35", "-q"}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errOut.String())
	}
	if !strings.Contains(out.String(), "engine=yafim") {
		t.Errorf("summary line missing from output:\n%s", out.String())
	}
}

// TestRunNodesFlag: -nodes 0 keeps the engine's default cluster, and a
// negative count is rejected with an error naming the flag instead of being
// silently ignored.
func TestRunNodesFlag(t *testing.T) {
	defer leaktest.Check(t)()
	input := writeDataset(t)
	if err := run(context.Background(), []string{"-input", input, "-support", "0.35",
		"-q", "-nodes", "0"}, io.Discard, io.Discard); err != nil {
		t.Fatalf("-nodes 0: %v", err)
	}
	err := run(context.Background(), []string{"-input", input, "-support", "0.35",
		"-q", "-nodes", "-2"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-nodes") {
		t.Fatalf("-nodes -2: err = %v, want an error naming -nodes", err)
	}
}

// TestRunFlushesTelemetryOnCancel is the SIGINT path: NotifyContext turns
// the signal into context cancellation, and the telemetry captured up to
// that point must still reach the -trace and -journal files.
func TestRunFlushesTelemetryOnCancel(t *testing.T) {
	defer leaktest.Check(t)()
	input := writeDataset(t)
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "out.trace.json")
	journalPath := filepath.Join(dir, "out.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the signal has already arrived
	var out, errOut strings.Builder
	err := run(ctx, []string{"-input", input, "-support", "0.35", "-q",
		"-trace", tracePath, "-journal", journalPath, "-stats", "-diag"}, &out, &errOut)
	if !errors.Is(err, yafim.ErrCanceled) {
		t.Fatalf("err = %v, want cancellation", err)
	}
	for _, p := range []string{tracePath, journalPath} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("telemetry file not flushed on cancel: %v", err)
		}
	}
	if !strings.Contains(errOut.String(), "partial trace written") {
		t.Errorf("no partial-flush notice on stderr:\n%s", errOut.String())
	}
}

// TestRunFlushesTelemetryOnDeadline is the -timeout path.
func TestRunFlushesTelemetryOnDeadline(t *testing.T) {
	defer leaktest.Check(t)()
	input := writeDataset(t)
	tracePath := filepath.Join(t.TempDir(), "out.trace.json")
	var out, errOut strings.Builder
	err := run(context.Background(), []string{"-input", input, "-support", "0.35",
		"-q", "-timeout", "1ns", "-trace", tracePath}, &out, &errOut)
	if !errors.Is(err, yafim.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if _, err := os.Stat(tracePath); err != nil {
		t.Errorf("trace not flushed on deadline: %v", err)
	}
}

// TestRunFlushesTelemetryOnMiningError covers the third exit family: an
// ordinary mining failure (not a cancellation) must flush too.
func TestRunFlushesTelemetryOnMiningError(t *testing.T) {
	defer leaktest.Check(t)()
	input := writeDataset(t)
	journalPath := filepath.Join(t.TempDir(), "out.jsonl")
	var out, errOut strings.Builder
	err := run(context.Background(), []string{"-input", input, "-support", "0.35",
		"-q", "-maxk", "-1", "-journal", journalPath}, &out, &errOut)
	if err == nil || errors.Is(err, yafim.ErrCanceled) {
		t.Fatalf("err = %v, want a plain mining error", err)
	}
	if _, err := os.Stat(journalPath); err != nil {
		t.Errorf("journal not flushed on mining error: %v", err)
	}
}

// TestRunListenJoinsServer starts the live HTTP surface and leans on
// leaktest: if the serve goroutine outlived run, the check fails.
func TestRunListenJoinsServer(t *testing.T) {
	defer leaktest.Check(t)()
	input := writeDataset(t)
	var out, errOut strings.Builder
	err := run(context.Background(), []string{"-input", input, "-support", "0.35",
		"-q", "-listen", "127.0.0.1:0"}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunRejectsUnknownDistMode(t *testing.T) {
	defer leaktest.Check(t)()
	err := run(context.Background(), []string{"-dist", "nonsense"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "unknown -dist mode") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunWorkerRequiresMasterURL(t *testing.T) {
	defer leaktest.Check(t)()
	err := run(context.Background(), []string{"-dist", "worker"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-dist-master") {
		t.Fatalf("err = %v", err)
	}
}

// TestRunDistSmokeCLI drives the whole -dist smoke mode in-test: the forked
// workers are re-execs of this test binary (see TestMain), one gets
// SIGKILLed mid-run, and run itself verifies parity with the sim oracle.
func TestRunDistSmokeCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("forks real worker processes")
	}
	defer leaktest.Check(t)()
	logs := t.TempDir()
	var out, errOut strings.Builder
	err := run(context.Background(), []string{"-dist", "smoke", "-dist-logs", logs,
		"-timeout", "120s"}, &out, &errOut)
	if err != nil {
		t.Fatalf("smoke: %v\nstderr: %s", err, errOut.String())
	}
	if !strings.Contains(out.String(), "PARITY OK") {
		t.Errorf("no parity confirmation:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "SIGKILLed worker") {
		t.Errorf("no kill notice:\n%s", errOut.String())
	}
	if _, err := os.Stat(filepath.Join(logs, "master-journal.jsonl")); err != nil {
		t.Errorf("master journal missing: %v", err)
	}
}
