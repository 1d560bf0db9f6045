package itemset

import (
	"errors"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseLines checks the batch parser against ParseLine over fuzz bytes
// cut into lines at every newline: each itemset holds its line's items and
// is capped at its length, so an append cannot overwrite the next line's,
// and a line ParseLine rejects fails the whole batch with a *LineError
// naming the first such line's index and wrapping strconv's *NumError.
func FuzzParseLines(f *testing.F) {
	f.Add([]byte("1 2 3\n3 1 3\n\n7\t7 2\r\n"))
	f.Add([]byte("1 2\n1 x\n3\n"))
	f.Add([]byte("2147483647 0\n2147483648\n"))
	f.Add([]byte("5 4 3 2 1\n\n\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		lines := strings.Split(string(data), "\n")
		sets, err := ParseLines(lines)
		for i, l := range lines {
			if _, perr := ParseLine(l); perr != nil {
				var le *LineError
				var ne *strconv.NumError
				if !errors.As(err, &le) || le.Index != i || !errors.As(err, &ne) || sets != nil {
					t.Fatalf("line %d (%q) does not parse (%v), yet the batch read as %v, %v",
						i, l, perr, sets, err)
				}
				return
			}
		}
		if err != nil {
			t.Fatalf("every line parses, yet the batch failed: %v", err)
		}
		if len(sets) != len(lines) {
			t.Fatalf("%d lines parsed as %d itemsets", len(lines), len(sets))
		}
		for i, s := range sets {
			if want, _ := ParseLine(lines[i]); !s.Equal(want) {
				t.Fatalf("line %d (%q) parsed as %v, want %v", i, lines[i], s, want)
			}
			if cap(s) != len(s) {
				t.Fatalf("itemset %d has capacity %d past its length %d", i, cap(s), len(s))
			}
		}
	})
}
