package itemset

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
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
	db := &DB{Name: name, Transactions: make([]Transaction, len(rows))}
	maxItem := Item(-1)
	for i, row := range rows {
		s := New(row...)
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
// line is the empty transaction. It is the one rule for the .dat row
// format: LoadFile, every engine that reads its input as text splits and
// the MapReduce record reader all parse through it or AppendLine. It
// allocates once, for the result.
//
// A field that is not an item id fails the line with an error quoting the
// field and wrapping strconv's *NumError for it.
func ParseLine(line string) (Itemset, error) {
	return AppendLine(make(Itemset, 0, CountFields(line)), line)
}

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

// TotalBytes estimates the on-disk size of the database in the whitespace
// separated text format, which the DFS and I/O cost models use.
func (db *DB) TotalBytes() int64 {
	var n int64
	for _, t := range db.Transactions {
		for _, it := range t.Items {
			n += int64(decimalWidth(int64(it))) + 1 // item + separator/newline
		}
	}
	return n
}

func decimalWidth(v int64) int {
	if v == 0 {
		return 1
	}
	w := 0
	if v < 0 {
		w++
		v = -v
	}
	for ; v > 0; v /= 10 {
		w++
	}
	return w
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

// ReadDB parses the .dat format produced by WriteTo (and used by the FIMI
// dataset repository): one transaction per line, each parsed by ParseLine.
// A blank line is the empty transaction, as it is to the engines that read
// the same file as text splits, and a line may be of any length, as it may
// be to them. An error names the input and line number.
func ReadDB(name string, r io.Reader) (*DB, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), math.MaxInt)
	db := &DB{Name: name}
	maxItem := Item(-1)
	for line := 1; sc.Scan(); line++ {
		set, err := ParseLine(sc.Text())
		if err != nil {
			return nil, fmt.Errorf("itemset: %s:%d: %w", name, line, err)
		}
		if n := len(set); n > 0 && set[n-1] > maxItem {
			maxItem = set[n-1]
		}
		db.Transactions = append(db.Transactions, Transaction{Items: set})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("itemset: reading %s: %w", name, err)
	}
	db.Transactions = slices.Clone(db.Transactions) // without append's spare capacity
	db.numItems = int(maxItem) + 1
	return db, nil
}
