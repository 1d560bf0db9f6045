package dataset

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"yafim/internal/dfs"
	"yafim/internal/itemset"
)

func sample() *itemset.DB {
	return itemset.NewDB("sample", [][]itemset.Item{{1, 2}, {3}, {10, 20, 30}})
}

func TestStage(t *testing.T) {
	fs := dfs.New(2)
	n, err := Stage(fs, "/d/sample.dat", sample())
	if err != nil {
		t.Fatal(err)
	}
	if n != sample().TotalBytes() {
		t.Fatalf("staged %d bytes, want %d", n, sample().TotalBytes())
	}
	data, err := fs.ReadFile("/d/sample.dat", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "1 2\n3\n10 20 30\n" {
		t.Fatalf("staged content %q", data)
	}
	if _, err := Stage(fs, "", sample()); err == nil {
		t.Error("empty path accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.dat")
	if err := SaveFile(sample(), path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile("sample", path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 3 || !back.Transactions[2].Items.Equal(itemset.New(10, 20, 30)) {
		t.Fatalf("round trip mismatch: %+v", back.Transactions)
	}
}

func TestLoadFileErrors(t *testing.T) {
	if _, err := LoadFile("x", filepath.Join(t.TempDir(), "missing.dat")); err == nil {
		t.Error("missing file loaded")
	}
	bad := filepath.Join(t.TempDir(), "bad.dat")
	if err := SaveFile(sample(), bad); err != nil {
		t.Fatal(err)
	}
	// Overwrite with malformed content via SaveFile path checks.
	if err := SaveFile(sample(), filepath.Join(t.TempDir(), "no", "dir.dat")); err == nil {
		t.Error("save into missing directory succeeded")
	}
}

// TestLoadFileLongLine reads a line longer than 4 MiB, past any fixed
// scanner cap, between two short ones: LoadFile must parse it to the
// transaction ParseLine gives, as the engines that read the file as text
// splits do.
func TestLoadFileLongLine(t *testing.T) {
	var sb strings.Builder
	for it := 1_000_000; sb.Len() <= 5<<20; it++ {
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(strconv.Itoa(it))
	}
	long := sb.String()
	path := filepath.Join(t.TempDir(), "long.dat")
	if err := os.WriteFile(path, []byte("1 2\n"+long+"\n3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := LoadFile("long", path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := itemset.ParseLine(long)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 3 || !db.Transactions[1].Items.Equal(want) ||
		!db.Transactions[2].Items.Equal(itemset.New(3)) {
		t.Fatalf("long line read as %d transactions; line 2 has %d items, want %d",
			db.Len(), db.Transactions[1].Items.Len(), want.Len())
	}
}

// TestLoadFileMalformed checks that parse failures carry file:line context
// and wrap the underlying strconv cause instead of surfacing it bare.
func TestLoadFileMalformed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mangled.dat")
	if err := os.WriteFile(path, []byte("1 2 3\n4 oops 6\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadFile("mangled", path)
	if err == nil {
		t.Fatal("malformed file loaded")
	}
	msg := err.Error()
	if !strings.Contains(msg, path) {
		t.Errorf("error does not name the file: %v", err)
	}
	if !strings.Contains(msg, "mangled:2") || !strings.Contains(msg, `"oops"`) {
		t.Errorf("error does not pinpoint line and token: %v", err)
	}
	var ne *strconv.NumError
	if !errors.As(err, &ne) {
		t.Errorf("strconv cause not wrapped: %v", err)
	}

	neg := filepath.Join(t.TempDir(), "neg.dat")
	if err := os.WriteFile(neg, []byte("1 -7 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadFile("neg", neg)
	if err == nil || !strings.Contains(err.Error(), "neg:1") {
		t.Errorf("negative item error missing line context: %v", err)
	}
}
