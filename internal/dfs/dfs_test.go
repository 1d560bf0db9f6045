package dfs

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"yafim/internal/sim"
)

// nodeUsage returns the bytes stored (including replicas) on each node.
func nodeUsage(fs *FileSystem) []int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	usage := make([]int64, fs.nodes)
	for _, f := range fs.files {
		for _, b := range f.blocks {
			for _, n := range b.replicas {
				usage[n] += int64(len(b.data))
			}
		}
	}
	return usage
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs := New(3, WithBlockSize(8), WithReplication(2))
	data := []byte("hello distributed world")
	var led sim.Ledger
	if err := fs.WriteFile("/data/x", data, &led); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/data/x", &led)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read back %q", got)
	}
	c := led.Total()
	if c.DiskWrite != int64(len(data))*2 {
		t.Errorf("DiskWrite = %d, want %d", c.DiskWrite, len(data)*2)
	}
	if c.Net != int64(len(data)) {
		t.Errorf("Net = %d, want %d (one pipeline hop)", c.Net, len(data))
	}
	if c.DiskRead != int64(len(data)) {
		t.Errorf("DiskRead = %d, want %d", c.DiskRead, len(data))
	}
}

func TestWriteOverwrites(t *testing.T) {
	fs := New(2)
	if err := fs.WriteFile("/f", []byte("old"), nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/f", []byte("newer"), nil); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/f", nil)
	if err != nil || string(got) != "newer" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestEmptyFile(t *testing.T) {
	fs := New(2)
	if err := fs.WriteFile("/empty", nil, nil); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/empty", nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("got %q, %v", got, err)
	}
	size, blocks, err := fs.Stat("/empty")
	if err != nil || size != 0 || blocks != 1 {
		t.Fatalf("stat = %d,%d,%v", size, blocks, err)
	}
}

func TestMissingFileErrors(t *testing.T) {
	fs := New(1)
	if _, err := fs.ReadFile("/nope", nil); err == nil {
		t.Error("ReadFile on missing file succeeded")
	}
	if _, err := fs.ReadRange("/nope", 0, 1, nil); err == nil {
		t.Error("ReadRange on missing file succeeded")
	}
	if _, _, err := fs.Stat("/nope"); err == nil {
		t.Error("Stat on missing file succeeded")
	}
	if err := fs.Delete("/nope"); err == nil {
		t.Error("Delete on missing file succeeded")
	}
	if _, err := fs.Splits("/nope"); err == nil {
		t.Error("Splits on missing file succeeded")
	}
	if err := fs.WriteFile("", []byte("x"), nil); err == nil {
		t.Error("WriteFile with empty path succeeded")
	}
}

func TestReadRange(t *testing.T) {
	fs := New(2, WithBlockSize(4))
	data := []byte("0123456789")
	if err := fs.WriteFile("/r", data, nil); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		off, n int64
		want   string
	}{
		{0, 10, "0123456789"},
		{0, 3, "012"},
		{3, 4, "3456"}, // crosses a block boundary
		{8, 10, "89"},  // truncated at EOF
		{10, 5, ""},    // past EOF
		{9, 0, ""},
	}
	for _, c := range cases {
		got, err := fs.ReadRange("/r", c.off, c.n, nil)
		if err != nil {
			t.Fatalf("ReadRange(%d,%d): %v", c.off, c.n, err)
		}
		if string(got) != c.want {
			t.Errorf("ReadRange(%d,%d) = %q, want %q", c.off, c.n, got, c.want)
		}
	}
	if _, err := fs.ReadRange("/r", -1, 2, nil); err == nil {
		t.Error("negative offset accepted")
	}
}

func TestDeleteAndList(t *testing.T) {
	fs := New(2)
	for _, p := range []string{"/a/1", "/a/2", "/b/1"} {
		if err := fs.WriteFile(p, []byte(p), nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := fs.List("/a/"); len(got) != 2 || got[0] != "/a/1" || got[1] != "/a/2" {
		t.Fatalf("List = %v", got)
	}
	if err := fs.Delete("/a/1"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fs.Stat("/a/1"); err == nil {
		t.Fatal("deleted file still stats")
	}
	if _, _, err := fs.Stat("/a/2"); err != nil {
		t.Fatalf("surviving file: %v", err)
	}
}

func TestBlockPlacementBalanced(t *testing.T) {
	fs := New(4, WithBlockSize(10), WithReplication(1))
	if err := fs.WriteFile("/big", make([]byte, 400), nil); err != nil {
		t.Fatal(err)
	}
	usage := nodeUsage(fs)
	for n, u := range usage {
		if u != 100 {
			t.Errorf("node %d usage = %d, want 100 (round robin)", n, u)
		}
	}
}

func TestReplicationCappedAtNodes(t *testing.T) {
	fs := New(2, WithReplication(5))
	var led sim.Ledger
	if err := fs.WriteFile("/f", []byte("abcd"), &led); err != nil {
		t.Fatal(err)
	}
	if c := led.Total(); c.DiskWrite != 8 {
		t.Fatalf("DiskWrite = %d, want 8 (replication capped at 2)", c.DiskWrite)
	}
}

func TestSplitsCoverFile(t *testing.T) {
	fs := New(3, WithBlockSize(7))
	data := []byte("abcdefghijklmnopqrstuvwxyz")
	if err := fs.WriteFile("/s", data, nil); err != nil {
		t.Fatal(err)
	}
	splits, err := fs.Splits("/s")
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 4 {
		t.Fatalf("got %d splits", len(splits))
	}
	var total int64
	next := int64(0)
	for _, s := range splits {
		if s.Offset != next {
			t.Fatalf("split offset %d, want %d", s.Offset, next)
		}
		if len(s.Locations) == 0 {
			t.Fatal("split has no locations")
		}
		next += s.Length
		total += s.Length
	}
	if total != int64(len(data)) {
		t.Fatalf("splits cover %d bytes, want %d", total, len(data))
	}
}

func TestReadLinesSimple(t *testing.T) {
	fs := New(2, WithBlockSize(1024))
	content := "alpha\nbeta\ngamma\n"
	if err := fs.WriteFile("/t", []byte(content), nil); err != nil {
		t.Fatal(err)
	}
	splits, err := fs.Splits("/t")
	if err != nil {
		t.Fatal(err)
	}
	lines, first, err := fs.ReadLinesContext(context.Background(), splits[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "beta", "gamma"}
	wantOff := []int64{0, 6, 11}
	if !slices.Equal(lines, want) {
		t.Fatalf("lines = %q, want %q", lines, want)
	}
	if got := lineOffsets(lines, first); !slices.Equal(got, wantOff) {
		t.Errorf("line offsets = %v, want %v", got, wantOff)
	}
}

// lineOffsets gives each of a split's lines its file offset: the first
// line's is first, and each next one starts one newline past the last.
func lineOffsets(lines []string, first int64) []int64 {
	offs := make([]int64, len(lines))
	for i, l := range lines {
		offs[i] = first
		first += int64(len(l)) + 1
	}
	return offs
}

// TestReadLinesOneStringPerSplit reads a split of 1,000 lines and one of
// 2,000: the lines are substrings of one string per split, so the reads
// make the same number of allocations, and each line's offset, derived
// from the first, holds its first byte.
func TestReadLinesOneStringPerSplit(t *testing.T) {
	allocs := func(n int) float64 {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, "%d %d %d\n", i, 2*i, 3*i)
		}
		data := sb.String()
		fs := New(2, WithBlockSize(int64(len(data))))
		if err := fs.WriteFile("/t", []byte(data), nil); err != nil {
			t.Fatal(err)
		}
		split := Split{Path: "/t", Length: int64(len(data))}
		lines, first, err := fs.ReadLinesContext(context.Background(), split, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(lines) != n {
			t.Fatalf("read %d lines, want %d", len(lines), n)
		}
		for i, off := range lineOffsets(lines, first) {
			if !strings.HasPrefix(data[off:], lines[i]+"\n") {
				t.Fatalf("line %d (%q) claims offset %d", i, lines[i], off)
			}
		}
		return testing.AllocsPerRun(10, func() {
			if _, _, err := fs.ReadLinesContext(context.Background(), split, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(2000)
	if large > small+5 || large < small-5 {
		t.Fatalf("reading 1,000 lines made %v allocations and 2,000 made %v; "+
			"they should not grow with the lines", small, large)
	}
}

// splitLines runs ReadLines over every split of the file and concatenates.
func splitLines(t *testing.T, fs *FileSystem, path string) []string {
	t.Helper()
	splits, err := fs.Splits(path)
	if err != nil {
		t.Fatal(err)
	}
	var all []string
	for _, s := range splits {
		lines, _, err := fs.ReadLinesContext(context.Background(), s, nil)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, lines...)
	}
	return all
}

func TestReadLinesAcrossBlockBoundaries(t *testing.T) {
	// Tiny blocks force records to straddle splits in every possible way.
	for bs := int64(1); bs <= 12; bs++ {
		fs := New(3, WithBlockSize(bs))
		content := "a\nbb\nccc\ndddd\n\neeeee"
		if err := fs.WriteFile("/t", []byte(content), nil); err != nil {
			t.Fatal(err)
		}
		got := splitLines(t, fs, "/t")
		want := []string{"a", "bb", "ccc", "dddd", "", "eeeee"}
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Fatalf("blockSize=%d: got %v, want %v", bs, got, want)
		}
	}
}

// Property: for random content and block sizes, the union of per-split
// ReadLines equals the file's lines, each exactly once and in order.
func TestReadLinesExactlyOnceProperty(t *testing.T) {
	f := func(seed int64, bs8 uint8, nLines8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		bs := int64(bs8%32) + 1
		nLines := int(nLines8 % 40)
		var sb strings.Builder
		var want []string
		for i := 0; i < nLines; i++ {
			line := strings.Repeat("x", rng.Intn(10))
			line = fmt.Sprintf("%d%s", i, line)
			want = append(want, line)
			sb.WriteString(line)
			sb.WriteByte('\n')
		}
		if nLines > 0 && rng.Intn(2) == 0 {
			// Sometimes drop the trailing newline.
			s := sb.String()
			sb.Reset()
			sb.WriteString(s[:len(s)-1])
		}
		fs := New(3, WithBlockSize(bs))
		if err := fs.WriteFile("/p", []byte(sb.String()), nil); err != nil {
			return false
		}
		splits, err := fs.Splits("/p")
		if err != nil {
			return false
		}
		var got []string
		for _, s := range splits {
			lines, _, err := fs.ReadLinesContext(context.Background(), s, nil)
			if err != nil {
				return false
			}
			got = append(got, lines...)
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentReadersWriters(t *testing.T) {
	fs := New(4, WithBlockSize(64))
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			path := fmt.Sprintf("/c/%d", g)
			payload := bytes.Repeat([]byte{byte('a' + g)}, 300)
			for i := 0; i < 50; i++ {
				if err := fs.WriteFile(path, payload, nil); err != nil {
					done <- err
					return
				}
				got, err := fs.ReadFile(path, nil)
				if err != nil {
					done <- err
					return
				}
				if !bytes.Equal(got, payload) {
					done <- fmt.Errorf("goroutine %d: corrupted read", g)
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestSplitsNSubdivides(t *testing.T) {
	fs := New(3, WithBlockSize(100))
	data := make([]byte, 250) // 3 blocks: 100, 100, 50
	for i := range data {
		data[i] = byte('a' + i%26)
	}
	if err := fs.WriteFile("/s", data, nil); err != nil {
		t.Fatal(err)
	}
	// Fewer than block count: fall back to per-block splits.
	few, err := fs.SplitsN("/s", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(few) != 3 {
		t.Fatalf("SplitsN(2) = %d splits", len(few))
	}
	// More than block count: blocks are cut into ranges covering the file.
	many, err := fs.SplitsN("/s", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(many) < 10 {
		t.Fatalf("SplitsN(10) = %d splits", len(many))
	}
	var total int64
	for _, s := range many {
		if s.Length <= 0 {
			t.Fatalf("empty split %+v", s)
		}
		if len(s.Locations) == 0 {
			t.Fatal("split lost block locations")
		}
		total += s.Length
	}
	if total != 250 {
		t.Fatalf("splits cover %d bytes", total)
	}
	// Requesting more splits than bytes clamps to the byte count.
	tiny := New(2, WithBlockSize(4))
	if err := tiny.WriteFile("/t", []byte("ab"), nil); err != nil {
		t.Fatal(err)
	}
	ts, err := tiny.SplitsN("/t", 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 {
		t.Fatalf("tiny SplitsN = %d", len(ts))
	}
	if _, err := fs.SplitsN("/missing", 4); err == nil {
		t.Error("SplitsN on missing file succeeded")
	}
}

func TestSplitsNLinesExactlyOnce(t *testing.T) {
	fs := New(3, WithBlockSize(64))
	var content strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&content, "line-%03d\n", i)
	}
	if err := fs.WriteFile("/l", []byte(content.String()), nil); err != nil {
		t.Fatal(err)
	}
	splits, err := fs.SplitsN("/l", 37) // awkward split count
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range splits {
		lines, _, err := fs.ReadLinesContext(context.Background(), s, nil)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, lines...)
	}
	if len(got) != 100 {
		t.Fatalf("read %d lines, want 100", len(got))
	}
	for i, l := range got {
		if l != fmt.Sprintf("line-%03d", i) {
			t.Fatalf("line %d = %q", i, l)
		}
	}
}
