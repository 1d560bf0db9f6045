package dfs

import (
	"bytes"
	"context"

	"yafim/internal/sim"
)

// Line is one text record produced by a line record reader: the byte offset
// of the line start within the file (the conventional MapReduce key) and the
// line's text without its trailing newline.
type Line struct {
	Offset int64
	Text   string
}

// readAhead is how far past a split's end the reader extends, chunk by
// chunk, to complete a record that crosses the boundary.
const readAhead = 4096

// ReadLinesContext reads the text records belonging to a split using
// Hadoop's LineRecordReader convention (see SplitLines). The context is
// checked before the split's main range read and again before every
// read-ahead chunk, so a canceled task stops within one chunk of extra I/O
// even on records that span many blocks.
func (fs *FileSystem) ReadLinesContext(ctx context.Context, split Split, led *sim.Ledger) ([]Line, error) {
	size, _, err := fs.Stat(split.Path)
	if err != nil {
		return nil, err
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
// It reads the split's range in one call and then one call per read-ahead
// chunk, so a metered reader pays exactly for the bytes a Hadoop task would
// pull.
func SplitLines(size, offset, length int64, readRange func(off, n int64) ([]byte, error)) ([]Line, error) {
	start := offset
	end := offset + length
	if end > size {
		end = size
	}
	if start >= size || start >= end {
		return nil, nil
	}
	buf, err := readRange(start, end-start)
	if err != nil {
		return nil, err
	}
	bufStart := start // absolute file offset of buf[0]
	pos := 0          // index of first unconsumed byte in buf

	if start > 0 {
		nl := bytes.IndexByte(buf, '\n')
		if nl < 0 {
			// The split lies entirely inside one long line that started in an
			// earlier split; it contributes no records of its own.
			return nil, nil
		}
		pos = nl + 1
	}

	var lines []Line
	for {
		lineStart := bufStart + int64(pos)
		if lineStart > end || lineStart >= size {
			// Records starting strictly past the boundary belong to the next
			// split (which will discard its leading line to compensate).
			break
		}
		nl := bytes.IndexByte(buf[pos:], '\n')
		for nl < 0 && bufStart+int64(len(buf)) < size {
			chunk, err := readRange(bufStart+int64(len(buf)), readAhead)
			if err != nil {
				return nil, err
			}
			if len(chunk) == 0 {
				break
			}
			buf = append(buf, chunk...)
			nl = bytes.IndexByte(buf[pos:], '\n')
		}
		if nl < 0 {
			// Final record, unterminated at EOF.
			lines = append(lines, Line{Offset: lineStart, Text: string(buf[pos:])})
			break
		}
		lines = append(lines, Line{Offset: lineStart, Text: string(buf[pos : pos+nl])})
		pos += nl + 1
	}
	return lines, nil
}
