package dist_test

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"yafim/internal/dist"
	"yafim/internal/itemset"
	"yafim/internal/mapreduce"
	"yafim/internal/mrapriori"
	"yafim/internal/sim"
)

// TestCachedPassAllocsFlatInRows drives the worker's map path (the block
// cache feeding mapreduce.MapTask) with MRApriori's counting job for one
// candidate, over cached splits of 1,000 and 2,000 rows shaped like
// Chess's. A worker parses a split once, so a cached pass's allocations do
// not grow with the rows; and mapping leaves the cached records' items as
// they were for the next pass.
func TestCachedPassAllocsFlatInRows(t *testing.T) {
	spec := mrapriori.CountSpec("count", "", dist.ScratchDir+"/C2",
		[][]itemset.Itemset{{itemset.New(1, 3)}}, 1, 2, 0)
	tasks, err := dist.BuildJob(spec.Type, spec.Params, spec.Cache)
	if err != nil {
		t.Fatal(err)
	}
	cachedPassAllocs := func(rows int) float64 {
		var sb strings.Builder
		for r := 0; r < rows; r++ {
			for i := 0; i < 37; i++ {
				if i > 0 {
					sb.WriteByte(' ')
				}
				sb.WriteString(strconv.Itoa(1 + 2*i + r%2))
			}
			sb.WriteByte('\n')
		}
		path := filepath.Join(t.TempDir(), "rows.dat")
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		split := dist.Split{Path: path, Length: int64(sb.Len())}
		cache := dist.NewBlockCache(1 << 30)
		pass := func() {
			read := func() ([]mapreduce.Record, error) { return cache.Get(split) }
			out, err := mapreduce.MapTask(0, tasks.NewMapper(), tasks.NewCombiner(), read, 2, new(sim.Ledger))
			if err != nil {
				t.Fatal(err)
			}
			if out.InputRecords != int64(rows) {
				t.Fatalf("mapped %d records, want %d", out.InputRecords, rows)
			}
		}
		pass() // the first pass reads and parses the split
		recs, err := cache.Get(split)
		if err != nil {
			t.Fatal(err)
		}
		before := make([]itemset.Itemset, len(recs))
		for i, r := range recs {
			before[i] = slices.Clone(r.Items)
		}
		allocs := testing.AllocsPerRun(1, pass)
		for i, r := range recs {
			if !reflect.DeepEqual([]itemset.Item(r.Items), []itemset.Item(before[i])) {
				t.Fatalf("mapping changed cached record %d: %v, was %v", i, r.Items, before[i])
			}
		}
		return allocs
	}
	small, large := cachedPassAllocs(1000), cachedPassAllocs(2000)
	if large > small+5 || large < small-5 {
		t.Fatalf("a cached pass made %v allocations over 1,000 rows and %v over 2,000; "+
			"it should not grow with the rows", small, large)
	}
}
