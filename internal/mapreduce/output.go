package mapreduce

import (
	"bytes"
	"fmt"
	"slices"
	"strings"

	"yafim/internal/dfs"
	"yafim/internal/shuffle"
	"yafim/internal/sim"
)

// KV is one parsed output record of a job.
type KV struct {
	Key   string
	Value string
}

// ReadOutput reads and parses every part file a job committed under dir,
// in part order. The ledger (may be nil) is charged for the DFS reads; the
// driver of an iterative algorithm passes one to account for re-reading
// results between jobs.
func ReadOutput(fs *dfs.FileSystem, dir string, led *sim.Ledger) ([]KV, error) {
	parts := fs.List(dir + "/part-r-")
	if len(parts) == 0 {
		return nil, fmt.Errorf("mapreduce: no output parts under %s", dir)
	}
	var out []KV
	for _, p := range parts {
		data, err := fs.ReadFile(p, led)
		if err != nil {
			return nil, err
		}
		if err := eachRecord(data, func(k, v string) error {
			out = append(out, KV{Key: k, Value: v})
			return nil
		}); err != nil {
			return nil, fmt.Errorf("mapreduce: %s: %w", p, err)
		}
	}
	return out, nil
}

// eachRecord calls fn with the key and value of every record of a part
// file or a run frame, in order. A record is one key\tvalue\n line: the key
// ends at the first tab, and the value may hold tabs. A line without a tab
// or without its newline fails.
func eachRecord(data []byte, fn func(k, v string) error) error {
	for text := string(data); text != ""; {
		line, rest, ok := strings.Cut(text, "\n")
		if !ok {
			return fmt.Errorf("unterminated record %q", line)
		}
		k, v, ok := strings.Cut(line, "\t")
		if !ok {
			return fmt.Errorf("malformed record %q", line)
		}
		if err := fn(k, v); err != nil {
			return err
		}
		text = rest
	}
	return nil
}

// AppendRun appends run to dst as part-file records, one key\tvalue\n line
// per value, and returns the extended slice. This is the frame a worker
// serves a map task's run in.
func AppendRun(dst []byte, run Run) []byte {
	n := 0
	for _, kv := range run {
		n += len(kv.Value) * (len(kv.Key) + 2)
		for _, v := range kv.Value {
			n += len(v)
		}
	}
	dst = slices.Grow(dst, n)
	for _, kv := range run {
		for _, v := range kv.Value {
			dst = append(append(append(append(dst, kv.Key...), '\t'), v...), '\n')
		}
	}
	return dst
}

// ParseRun reads a frame AppendRun wrote back into its run. Besides a
// malformed line, it rejects keys out of order. A key's values are
// consecutive lines, so they share one backing slice in line order.
func ParseRun(data []byte) (Run, error) {
	lines := bytes.Count(data, []byte{'\n'})
	run, vals := make(Run, 0, lines), make([]string, 0, lines)
	err := eachRecord(data, func(k, v string) error {
		vals = append(vals, v)
		switch n := len(run); {
		case n > 0 && k == run[n-1].Key:
			run[n-1].Value = vals[len(vals)-len(run[n-1].Value)-1 : len(vals) : len(vals)]
		case n > 0 && k < run[n-1].Key:
			return fmt.Errorf("key %q after key %q", k, run[n-1].Key)
		default:
			run = append(run, shuffle.Pair[string, []string]{Key: k, Value: vals[len(vals)-1 : len(vals) : len(vals)]})
		}
		return nil
	})
	return run, err
}

// CleanOutput deletes a previous run's part files under dir, mirroring the
// manual cleanup Hadoop requires before reusing an output directory.
func CleanOutput(fs *dfs.FileSystem, dir string) {
	for _, p := range fs.List(dir + "/part-r-") {
		// Deleting a concurrently removed file is harmless here.
		_ = fs.Delete(p)
	}
}
