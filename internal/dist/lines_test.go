package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"yafim/internal/dataset"
	"yafim/internal/dfs"
	"yafim/internal/itemset"
)

// writeInput writes content to a temp file and returns its path.
func writeInput(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "input.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSplitFileEmptyInputRejected(t *testing.T) {
	path := writeInput(t, "")
	if _, err := splitFile(path, 2); err == nil {
		t.Fatal("splitFile accepted an empty file")
	}
}

func TestSplitFileMissingInputRejected(t *testing.T) {
	if _, err := splitFile(filepath.Join(t.TempDir(), "nope"), 2); err == nil {
		t.Fatal("splitFile accepted a missing file")
	}
}

// TestSplitReadExactlyOnce is the core line-boundary contract: for any input
// shape and any split count — including more splits than lines or bytes —
// the splits cover the file exactly, and reading them all back yields every
// record exactly once, in order. This is what keeps the distributed record
// count (and the absolute min-support threshold derived from it)
// byte-identical to the sim oracle.
func TestSplitReadExactlyOnce(t *testing.T) {
	cases := []struct {
		name    string
		content string
		want    []string
	}{
		{"single line terminated", "only\n", []string{"only"}},
		{"single line unterminated", "only", []string{"only"}},
		{"no trailing newline", "a\nbb\nccc", []string{"a", "bb", "ccc"}},
		{"blank lines", "\n\nx\n\n", []string{"", "", "x", ""}},
		{"record spans split boundary",
			"short\n" + strings.Repeat("w", 64) + "\ntail\n",
			[]string{"short", strings.Repeat("w", 64), "tail"}},
		{"one long line dwarfs every split",
			strings.Repeat("z", 256) + "\n",
			[]string{strings.Repeat("z", 256)}},
		{"uniform records", strings.Repeat("item\n", 40),
			append([]string(nil), splitRepeat("item", 40)...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeInput(t, tc.content)
			for _, minSplits := range []int{1, 2, 3, 5, 8, 1000} {
				splits, err := splitFile(path, minSplits)
				if err != nil {
					t.Fatalf("minSplits=%d: %v", minSplits, err)
				}
				// Splits tile the file: contiguous, non-empty, full coverage.
				var off int64
				for _, s := range splits {
					if s.Offset != off || s.Length <= 0 {
						t.Fatalf("minSplits=%d: split %+v breaks tiling at offset %d",
							minSplits, s, off)
					}
					off += s.Length
				}
				if off != int64(len(tc.content)) {
					t.Fatalf("minSplits=%d: splits cover %d of %d bytes",
						minSplits, off, len(tc.content))
				}
				// Reading every split back yields each record exactly once.
				var got []string
				for _, s := range splits {
					lines, _, err := readSplit(s)
					if err != nil {
						t.Fatalf("minSplits=%d: readSplit(%+v): %v", minSplits, s, err)
					}
					got = append(got, lines...)
				}
				if len(got) != len(tc.want) {
					t.Fatalf("minSplits=%d: %d records, want %d: %q",
						minSplits, len(got), len(tc.want), got)
				}
				for i := range got {
					if got[i] != tc.want[i] {
						t.Fatalf("minSplits=%d: record %d = %q, want %q",
							minSplits, i, got[i], tc.want[i])
					}
				}
			}
		})
	}
}

func splitRepeat(s string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = s
	}
	return out
}

func TestReadSplitInsideLongLineYieldsNothing(t *testing.T) {
	// A split lying entirely inside a line started in an earlier split
	// contributes no records: the line belongs to the split holding its
	// first byte.
	content := strings.Repeat("x", 100) + "\nend\n"
	path := writeInput(t, content)
	lines, _, err := readSplit(Split{Path: path, Offset: 10, Length: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 0 {
		t.Fatalf("mid-line split produced records: %v", lines)
	}
}

func TestReadSplitPastEOFYieldsNothing(t *testing.T) {
	path := writeInput(t, "a\nb\n")
	lines, _, err := readSplit(Split{Path: path, Offset: 100, Length: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 0 {
		t.Fatalf("past-EOF split produced records: %v", lines)
	}
}

// FuzzReadSplitMatchesDFS holds the real runtime's split reader to the sim
// DFS's on arbitrary bytes cut at arbitrary points: every range reads the
// same records from a real file as from the sim DFS (16-byte blocks), and
// together the ranges return each line exactly once, in order, from the
// range that holds its start — a line starting at offset 0 from the first
// range, any other from the range with offset < start <= offset+length.
// The seeds include lines longer than the reader's 4096-byte read-ahead.
// LoadFile of the same bytes cuts the same lines: it fails exactly when
// some range's readRecords fails, and otherwise its transactions are the
// ranges' records, in order.
//
// Each pair of cut bytes is one big-endian cut point, taken modulo
// len(data)+1.
func FuzzReadSplitMatchesDFS(f *testing.F) {
	long := strings.Repeat("x", 5000)
	f.Add([]byte("a\nbb\nccc"), []byte{0, 2, 0, 3})
	f.Add([]byte("1 2 3\n4 5\n\n6\n"), []byte{0, 1, 0, 6, 0, 7})
	f.Add([]byte(long+"\n"+long+"\nshort\n"), []byte{0, 16, 0x13, 0x88, 0x13, 0x89, 0x20, 0})
	f.Add([]byte(strings.Repeat("y", 9000)+"\nz"), []byte{0, 16, 0x23, 0x28})
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		path := writeInput(t, string(data))
		fs := dfs.New(3, dfs.WithBlockSize(16))
		if err := fs.WriteFile("/in", data, nil); err != nil {
			t.Fatal(err)
		}
		bounds := []int64{0, int64(len(data))}
		for i := 0; i+1 < len(cuts); i += 2 {
			bounds = append(bounds, int64(binary.BigEndian.Uint16(cuts[i:]))%int64(len(data)+1))
		}
		slices.Sort(bounds)
		bounds = slices.Compact(bounds)

		want := allLines(data)
		next := 0
		var rows []itemset.Itemset
		parsed := true
		for i := 0; i+1 < len(bounds); i++ {
			off, length := bounds[i], bounds[i+1]-bounds[i]
			got, first, err := readSplit(Split{Path: path, Offset: off, Length: length})
			if err != nil {
				t.Fatal(err)
			}
			rangeRows, _, err := readRecords(Split{Path: path, Offset: off, Length: length})
			rows = append(rows, rangeRows...)
			parsed = parsed && err == nil
			sim, simFirst, err := fs.ReadLinesContext(context.Background(), dfs.Split{Path: "/in", Offset: off, Length: length}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, sim) || first != simFirst {
				t.Fatalf("range [%d,+%d): file reader %q from %d, DFS reader %q from %d",
					off, length, got, first, sim, simFirst)
			}
			for _, l := range withOffsets(got, first) {
				if next == len(want) || l != want[next] {
					t.Fatalf("range [%d,+%d) returned the line at %d (%q) out of order",
						off, length, l.off, l.text)
				}
				owner := off < l.off && l.off <= off+length
				if l.off == 0 {
					owner = i == 0
				}
				if !owner {
					t.Fatalf("range [%d,+%d) returned the line at %d", off, length, l.off)
				}
				next++
			}
		}
		if next != len(want) {
			t.Fatalf("ranges returned %d of %d lines", next, len(want))
		}

		db, err := dataset.LoadFile("fuzz", path)
		if (err == nil) != parsed {
			t.Fatalf("LoadFile err = %v, but every range read its records: %v", err, parsed)
		}
		if err != nil {
			return
		}
		if db.Len() != len(rows) {
			t.Fatalf("LoadFile read %d transactions, the ranges %d rows", db.Len(), len(rows))
		}
		for i, tr := range db.Transactions {
			if !tr.Items.Equal(rows[i]) {
				t.Fatalf("transaction %d = %v, row %v", i, tr.Items, rows[i])
			}
		}
	})
}

// line is one line of a file and the offset of its first byte.
type line struct {
	off  int64
	text string
}

// allLines cuts data into its lines: one starts at offset 0 and one after
// every newline that is not the last byte.
func allLines(data []byte) []line {
	var lines []line
	for start := 0; start < len(data); {
		n := bytes.IndexByte(data[start:], '\n')
		if n < 0 {
			n = len(data) - start
		}
		lines = append(lines, line{int64(start), string(data[start : start+n])})
		start += n + 1
	}
	return lines
}

// withOffsets gives each of a split's lines its file offset: the first
// line's is first, and each next one starts one newline past the last.
func withOffsets(lines []string, first int64) []line {
	out := make([]line, len(lines))
	for i, l := range lines {
		out[i] = line{first, l}
		first += int64(len(l)) + 1
	}
	return out
}
