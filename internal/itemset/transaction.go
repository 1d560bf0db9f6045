package itemset

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Transaction is one record of a transactional database: the itemset
// bought/observed together. A transaction is identified by its index in
// DB.Transactions.
type Transaction struct {
	Items Itemset
}

// DB is a horizontal-layout transactional database, the input format of the
// Apriori family. It is immutable once built; all mining engines share it
// read-only across goroutines.
type DB struct {
	Name         string
	Transactions []Transaction
	numItems     int // 1 + max item id, computed lazily at build time
}

// NewDB builds a database from raw item slices. Each transaction is
// canonicalised (sorted, deduplicated).
func NewDB(name string, rows [][]Item) *DB {
	sets := make([]Itemset, len(rows))
	for i, row := range rows {
		sets[i] = New(row...)
	}
	return DBFromSets(name, sets)
}

// DBFromSets builds a database over sets, which must be canonical, as
// ParseLines returns them. It keeps the sets as they are, sharing their
// backing arrays, so the caller must not change them afterwards.
func DBFromSets(name string, sets []Itemset) *DB {
	db := &DB{Name: name, Transactions: make([]Transaction, len(sets))}
	maxItem := Item(-1)
	for i, s := range sets {
		db.Transactions[i] = Transaction{Items: s}
		if n := len(s); n > 0 && s[n-1] > maxItem {
			maxItem = s[n-1]
		}
	}
	db.numItems = int(maxItem) + 1
	return db
}

// Len returns the number of transactions.
func (db *DB) Len() int { return len(db.Transactions) }

// NumItems returns one plus the largest item identifier present, i.e. the
// size of a dense array indexed by item.
func (db *DB) NumItems() int { return db.numItems }

// MinSupportCount converts a relative minimum support (e.g. 0.35 for 35%)
// into an absolute transaction count, rounding up so that an itemset is
// frequent iff its count >= the returned value.
func (db *DB) MinSupportCount(relative float64) int {
	if relative < 0 || relative > 1 {
		panic(fmt.Sprintf("itemset: relative support %v out of [0,1]", relative))
	}
	return MinSupportCount(relative, int64(db.Len()))
}

// MinSupportCount is DB.MinSupportCount for n transactions the caller has
// only counted, as a distributed engine does after its first pass. The
// caller validates relative.
func MinSupportCount(relative float64, n int64) int {
	c := int(relative * float64(n))
	if float64(c) < relative*float64(n) {
		c++
	}
	if c < 1 {
		c = 1
	}
	return c
}

// ParseLine parses one .dat record: non-negative decimal item ids
// separated by spaces, tabs or carriage returns, canonicalised. A blank
// line is the empty transaction. AppendLine holds the rule for the .dat
// row format; ParseLine applies it to one line, such as a MapReduce output
// key, and ParseLines to a batch of input lines. It allocates once, for
// the result.
//
// A field that is not an item id fails the line with an error quoting the
// field and wrapping strconv's *NumError for it.
func ParseLine(line string) (Itemset, error) {
	return AppendLine(make(Itemset, 0, CountFields(line)), line)
}

// ParseLines parses a batch of .dat lines by AppendLine. It is the one
// parser from input text to transactions: the MapReduce record reader, the
// RDD engines' transactions partitions and LoadFile all call it. The
// itemsets share one backing array, sized up front from the lines' fields
// so it never moves, and each is capped at its own length, so an append to
// one cannot overwrite the next. A line that does not parse fails the
// whole batch with a *LineError.
func ParseLines(lines []string) ([]Itemset, error) {
	fields := 0
	for _, line := range lines {
		fields += CountFields(line)
	}
	items := make(Itemset, 0, fields) // every line's items, back to back
	sets := make([]Itemset, len(lines))
	for i, line := range lines {
		start := len(items)
		var err error
		if items, err = AppendLine(items, line); err != nil {
			return nil, &LineError{Index: i, Err: err}
		}
		sets[i] = items[start:len(items):len(items)]
	}
	return sets, nil
}

// LineError is the error ParseLines returns for the first line of its
// batch that does not parse.
type LineError struct {
	Index int   // the line's index in the batch, from 0
	Err   error // AppendLine's error, which wraps strconv's *NumError
}

func (e *LineError) Error() string { return fmt.Sprintf("line at index %d: %v", e.Index, e.Err) }

func (e *LineError) Unwrap() error { return e.Err }

// CountFields returns the number of fields of a .dat line: an upper bound
// on its items, and their number when the line parses and repeats none.
func CountFields(line string) int {
	n := 0
	for i := 0; i < len(line); i++ {
		if !isSeparator(line[i]) && (i == 0 || isSeparator(line[i-1])) {
			n++
		}
	}
	return n
}

// AppendLine parses line as ParseLine does and appends its canonical items
// to dst, returning the extended slice; the items already in dst are left
// alone. It sorts only when the line's items do not already ascend. On
// error it returns dst as it was.
func AppendLine(dst Itemset, line string) (Itemset, error) {
	start := len(dst)
	ascending := true
	for i := 0; i < len(line); i++ {
		if isSeparator(line[i]) {
			continue
		}
		v, j := int64(0), i
		for ; j < len(line) && line[j] >= '0' && line[j] <= '9'; j++ {
			if v = v*10 + int64(line[j]-'0'); v > math.MaxInt32 {
				return dst[:start], badItem(line, i)
			}
		}
		if j == i || (j < len(line) && !isSeparator(line[j])) {
			return dst[:start], badItem(line, i)
		}
		if n := len(dst); n > start && Item(v) <= dst[n-1] {
			ascending = false
		}
		dst = append(dst, Item(v))
		i = j // line[j] is a separator or the end
	}
	if !ascending {
		dst = dst[:start+len(Canonical(dst[start:]))]
	}
	return dst, nil
}

func isSeparator(c byte) bool { return c == ' ' || c == '\t' || c == '\r' }

// badItem reports the field of line starting at i. strconv.ParseUint in
// base 10 with 31 bits accepts exactly the fields AppendLine accepts, so it
// rejects this one and says why.
func badItem(line string, i int) error {
	j := i
	for j < len(line) && !isSeparator(line[j]) {
		j++
	}
	_, err := strconv.ParseUint(line[i:j], 10, 31)
	return fmt.Errorf("bad item %q: %w", line[i:j], err)
}

// Replicate returns a database whose transaction list is db's repeated
// times times, the construction the paper uses for its sizeup experiments
// (§V-C): relative supports are unchanged while the data volume grows.
func (db *DB) Replicate(times int) *DB {
	if times < 1 {
		panic("itemset: Replicate requires times >= 1")
	}
	out := &DB{
		Name:         fmt.Sprintf("%s(x%d)", db.Name, times),
		Transactions: make([]Transaction, 0, times*db.Len()),
		numItems:     db.numItems,
	}
	for r := 0; r < times; r++ {
		out.Transactions = append(out.Transactions, db.Transactions...)
	}
	return out
}

// Stats summarises a database the way the paper's Table I does, plus the
// density figures useful for calibrating generators.
type Stats struct {
	Name            string
	NumItems        int // distinct items actually occurring
	NumTransactions int
	AvgLength       float64 // mean items per transaction
	MaxLength       int
	Density         float64 // AvgLength / NumItems
}

// ComputeStats scans the database once and returns its summary.
func (db *DB) ComputeStats() Stats {
	seen := make(map[Item]struct{})
	total, maxLen := 0, 0
	for _, t := range db.Transactions {
		total += len(t.Items)
		if len(t.Items) > maxLen {
			maxLen = len(t.Items)
		}
		for _, it := range t.Items {
			seen[it] = struct{}{}
		}
	}
	st := Stats{
		Name:            db.Name,
		NumItems:        len(seen),
		NumTransactions: db.Len(),
		MaxLength:       maxLen,
	}
	if db.Len() > 0 {
		st.AvgLength = float64(total) / float64(db.Len())
	}
	if st.NumItems > 0 {
		st.Density = st.AvgLength / float64(st.NumItems)
	}
	return st
}

// WriteTo writes the database in the conventional .dat format: one
// transaction per line, items space separated. It reports the number of
// bytes written.
func (db *DB) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	for _, t := range db.Transactions {
		for i, it := range t.Items {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return n, err
				}
				n++
			}
			s := strconv.FormatInt(int64(it), 10)
			m, err := bw.WriteString(s)
			n += int64(m)
			if err != nil {
				return n, err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return n, err
		}
		n++
	}
	return n, bw.Flush()
}
