package dist

import (
	"fmt"
	"io"
	"os"

	"yafim/internal/dfs"
	"yafim/internal/mapreduce"
)

// splitFile cuts a real file into at least minSplits byte ranges, mirroring
// dfs.SplitsN's FileInputFormat behaviour (minus block structure, which real
// local files do not have): even target-sized ranges covering the file,
// clamped so no split is empty. Record boundaries are reconciled by
// readSplit, not here.
func splitFile(path string, minSplits int) ([]Split, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size == 0 {
		return nil, fmt.Errorf("dist: input %s is empty", path)
	}
	if minSplits < 1 {
		minSplits = 1
	}
	if int64(minSplits) > size {
		minSplits = int(size)
	}
	// Exactly minSplits non-empty ranges: even base size, the remainder
	// spread one byte at a time over the leading splits.
	base := size / int64(minSplits)
	rem := size % int64(minSplits)
	out := make([]Split, 0, minSplits)
	off := int64(0)
	for i := 0; i < minSplits; i++ {
		length := base
		if int64(i) < rem {
			length++
		}
		out = append(out, Split{Path: path, Offset: off, Length: length})
		off += length
	}
	return out, nil
}

// readSplit reads the records belonging to one split of a real file with
// the sim DFS's own Hadoop LineRecordReader (dfs.SplitLines), so together
// the splits of a file yield every line exactly once and the distributed map
// stage's record count (and with it the absolute min-support threshold)
// stays byte-identical to the sim oracle's.
func readSplit(split Split) ([]dfs.Line, error) {
	f, err := os.Open(split.Path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return dfs.SplitLines(fi.Size(), split.Offset, split.Length, func(off, n int64) ([]byte, error) {
		buf := make([]byte, n)
		k, err := f.ReadAt(buf, off)
		if err == io.EOF {
			err = nil // a short read at end of file, as dfs.ReadRange
		}
		return buf[:k], err
	})
}

// readRecords reads one split and parses its lines into map-task records:
// what a block cache miss costs.
func readRecords(split Split) ([]mapreduce.Record, error) {
	lines, err := readSplit(split)
	if err != nil {
		return nil, err
	}
	return mapreduce.ReadRecords(lines)
}
