package dfs

import (
	"bytes"
	"context"
	"strings"

	"yafim/internal/sim"
)

// readAhead is how far past a split's end the reader extends, chunk by
// chunk, to complete a record that crosses the boundary.
const readAhead = 4096

// ReadLinesContext reads the text records belonging to a split using
// Hadoop's LineRecordReader convention (see SplitLines). The context is
// checked before the split's main range read and again before every
// read-ahead chunk, so a canceled task stops within one chunk of extra I/O
// even on records that span many blocks.
func (fs *FileSystem) ReadLinesContext(ctx context.Context, split Split, led *sim.Ledger) ([]string, int64, error) {
	size, _, err := fs.Stat(split.Path)
	if err != nil {
		return nil, 0, err
	}
	return SplitLines(size, split.Offset, split.Length, func(off, n int64) ([]byte, error) {
		return fs.ReadRangeContext(ctx, split.Path, off, n, led)
	})
}

// SplitLines is Hadoop's LineRecordReader over a file of size bytes: it
// returns the records of the split [offset, offset+length), reading through
// readRange, which returns up to n bytes at off and fewer only at end of
// file. A split that does not start at offset zero discards its first line
// (whether partial or whole — it belongs to the previous split), and every
// split keeps reading records whose first byte lies at or before the split's
// end, extending past the boundary in readAhead chunks as needed. Together
// the splits of a file yield every line exactly once.
//
// The lines come without their newlines, as substrings of one string made
// from the bytes the split owns, together with the file offset of the first
// line: line i starts where line i-1 starts plus its length and one. It
// reads the split's range in one call and then one call per read-ahead
// chunk, so a metered reader pays exactly for the bytes a Hadoop task would
// pull.
func SplitLines(size, offset, length int64, readRange func(off, n int64) ([]byte, error)) ([]string, int64, error) {
	start := offset
	end := min(offset+length, size)
	if start >= size || start >= end {
		return nil, 0, nil
	}
	buf, err := readRange(start, end-start)
	if err != nil {
		return nil, 0, err
	}
	pos := 0 // buf[pos], at file offset start+pos, is the first unconsumed byte
	if start > 0 {
		nl := bytes.IndexByte(buf, '\n')
		if nl < 0 {
			// The split lies entirely inside one long line that started in an
			// earlier split; it contributes no records of its own.
			return nil, 0, nil
		}
		pos = nl + 1
	}

	first, stop := pos, -1 // the owned lines: buf[first:stop], no last newline
	for {
		lineStart := start + int64(pos)
		if lineStart > end || lineStart >= size {
			// Records starting strictly past the boundary belong to the next
			// split (which will discard its leading line to compensate).
			break
		}
		nl := bytes.IndexByte(buf[pos:], '\n')
		for nl < 0 && start+int64(len(buf)) < size {
			chunk, err := readRange(start+int64(len(buf)), readAhead)
			if err != nil {
				return nil, 0, err
			}
			if len(chunk) == 0 {
				break
			}
			buf = append(buf, chunk...)
			nl = bytes.IndexByte(buf[pos:], '\n')
		}
		if nl < 0 {
			// Final record, unterminated at EOF.
			stop = len(buf)
			break
		}
		stop = pos + nl
		pos += nl + 1
	}
	if stop < 0 {
		return nil, 0, nil
	}
	return strings.Split(string(buf[first:stop]), "\n"), start + int64(first), nil
}
