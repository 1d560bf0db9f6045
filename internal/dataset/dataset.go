// Package dataset bridges transaction databases and storage: staging a
// database into the simulated DFS for the parallel engines, and loading
// the conventional .dat text format from the local file system.
package dataset

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"yafim/internal/dfs"
	"yafim/internal/itemset"
)

// Stage writes db into the DFS at path in .dat text format, the input both
// parallel engines read. It returns the number of bytes staged.
func Stage(fs *dfs.FileSystem, path string, db *itemset.DB) (int64, error) {
	var buf bytes.Buffer
	n, err := db.WriteTo(&buf)
	if err != nil {
		return 0, fmt.Errorf("dataset: encoding %s: %w", db.Name, err)
	}
	if err := fs.WriteFile(path, buf.Bytes(), nil); err != nil {
		return 0, fmt.Errorf("dataset: staging %s: %w", db.Name, err)
	}
	return n, nil
}

// LoadFile reads a .dat transaction file from the local file system. It
// reads the whole file first, into one string, then parses its lines,
// substrings of that string, by itemset.ParseLines, the parser every engine
// reads its input with; so a line may be of any length, and a blank line
// is the empty transaction. Parse failures carry file:line context and
// wrap the underlying cause (e.g. the *strconv.NumError for a non-numeric
// token), so callers can both display a precise location and inspect the
// cause with errors.As.
func LoadFile(name, path string) (*itemset.DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	defer f.Close()
	var text strings.Builder
	if fi, err := f.Stat(); err == nil {
		text.Grow(int(fi.Size()))
	}
	if _, err := io.Copy(&text, f); err != nil {
		return nil, fmt.Errorf("dataset: reading %s: %w", path, err)
	}
	lines := strings.Split(text.String(), "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1] // the last newline ends a line, it starts none
	}
	sets, err := itemset.ParseLines(lines)
	if err != nil {
		var le *itemset.LineError
		if errors.As(err, &le) {
			err = fmt.Errorf("%s:%d: %w", name, le.Index+1, le.Err)
		}
		return nil, fmt.Errorf("dataset: parsing %s: %w", path, err)
	}
	return itemset.DBFromSets(name, sets), nil
}

// SaveFile writes db to the local file system in .dat format.
func SaveFile(db *itemset.DB, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	if _, err := db.WriteTo(f); err != nil {
		f.Close()
		return fmt.Errorf("dataset: writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("dataset: closing %s: %w", path, err)
	}
	return nil
}
