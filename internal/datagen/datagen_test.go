package datagen

import (
	"testing"
	"testing/quick"

	"yafim/internal/apriori"
	"yafim/internal/itemset"
)

func TestPlantedValidation(t *testing.T) {
	bad := []PlantedConfig{
		{Name: "a"},
		{Name: "b", Items: 10, Transactions: 10, AvgLen: 5, Blocks: []Block{{Size: 0, Prob: 0.5}}},
		{Name: "c", Items: 10, Transactions: 10, AvgLen: 5, Blocks: []Block{{Size: 2, Prob: 1.5}}},
		{Name: "d", Items: 10, Transactions: 10, AvgLen: 9, Blocks: []Block{{Size: 10, Prob: 0.5}}},
		{Name: "e", Items: 20, Transactions: 10, AvgLen: 4, Blocks: []Block{{Size: 6, Prob: 0.9}}},
	}
	for _, cfg := range bad {
		if _, err := Planted(cfg); err == nil {
			t.Errorf("config %q accepted: %+v", cfg.Name, cfg)
		}
	}
}

func TestPlantedDeterministic(t *testing.T) {
	cfg := PlantedConfig{
		Name: "det", Items: 50, Transactions: 200, AvgLen: 10,
		Blocks: []Block{{Size: 4, Prob: 0.5}}, Seed: 42,
	}
	a, err := Planted(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Planted(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatal("lengths differ across runs")
	}
	for i := range a.Transactions {
		if !a.Transactions[i].Items.Equal(b.Transactions[i].Items) {
			t.Fatalf("transaction %d differs across identical seeds", i)
		}
	}
	c, err := Planted(PlantedConfig{
		Name: "det", Items: 50, Transactions: 200, AvgLen: 10,
		Blocks: []Block{{Size: 4, Prob: 0.5}}, Seed: 43,
	})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Transactions {
		if !a.Transactions[i].Items.Equal(c.Transactions[i].Items) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

// blockItems returns the item range [start, start+size) Planted gives block
// i of c: the blocks occupy the lowest item ids, in order.
func blockItems(c PlantedConfig, i int) itemset.Itemset {
	start := 0
	for j := 0; j < i; j++ {
		start += c.Blocks[j].Size
	}
	items := make([]itemset.Item, c.Blocks[i].Size)
	for k := range items {
		items[k] = itemset.Item(start + k)
	}
	return itemset.New(items...)
}

func TestPlantedBlockSupportNearProb(t *testing.T) {
	cfg := PlantedConfig{
		Name: "blocks", Items: 100, Transactions: 5000, AvgLen: 15,
		Blocks: []Block{{Size: 5, Prob: 0.6}, {Size: 3, Prob: 0.3}},
		Seed:   7,
	}
	db, err := Planted(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range cfg.Blocks {
		block := blockItems(cfg, i)
		count := 0
		for _, tr := range db.Transactions {
			if tr.Items.ContainsAll(block) {
				count++
			}
		}
		got := float64(count) / float64(db.Len())
		if got < b.Prob-0.05 || got > b.Prob+0.05 {
			t.Errorf("block %d support = %.3f, want ~%.2f", i, got, b.Prob)
		}
	}
}

func TestPlantedAvgLength(t *testing.T) {
	db, err := Planted(PlantedConfig{
		Name: "len", Items: 200, Transactions: 2000, AvgLen: 20,
		Blocks: []Block{{Size: 5, Prob: 0.5}}, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := db.ComputeStats()
	if st.AvgLength < 17 || st.AvgLength > 23 {
		t.Fatalf("AvgLength = %.2f, want ~20", st.AvgLength)
	}
}

func TestBenchmarkShapesMatchTableI(t *testing.T) {
	cases := []struct {
		gen    func(float64, int64) (*itemset.DB, error)
		name   string
		items  int // universe size from Table I
		txFull int
	}{
		{MushroomLike, "MushRoom", 119, 8124},
		{ChessLike, "Chess", 75, 3196},
		{PumsbStarLike, "Pumsb_star", 2113, 49046},
	}
	for _, c := range cases {
		db, err := c.gen(1.0, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if db.Name != c.name {
			t.Errorf("name = %q", db.Name)
		}
		if db.Len() != c.txFull {
			t.Errorf("%s: transactions = %d, want %d", c.name, db.Len(), c.txFull)
		}
		st := db.ComputeStats()
		if st.NumItems > c.items {
			t.Errorf("%s: %d distinct items exceeds universe %d", c.name, st.NumItems, c.items)
		}
		if st.NumItems < c.items/2 {
			t.Errorf("%s: only %d of %d items ever occur", c.name, st.NumItems, c.items)
		}
	}
}

func TestScaledDatasetsShrink(t *testing.T) {
	small, err := MushroomLike(0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if small.Len() >= 8124 || small.Len() < 50 {
		t.Fatalf("scaled size = %d", small.Len())
	}
}

// TestPlantedLatticeDepth mines a scaled-down benchmark and checks the
// planted blocks drive the frequent-itemset lattice to the expected depth
// at the paper's support threshold.
func TestPlantedLatticeDepth(t *testing.T) {
	cases := []struct {
		gen     func(float64, int64) (*itemset.DB, error)
		support float64
		depth   int // size of the largest planted block above threshold
	}{
		{MushroomLike, 0.35, 8},
		{ChessLike, 0.85, 10},
		{PumsbStarLike, 0.65, 8},
		{MedicalCases, 0.03, 7},
	}
	for _, c := range cases {
		db, err := c.gen(0.1, 11)
		if err != nil {
			t.Fatal(err)
		}
		res, err := apriori.Mine(db, c.support, apriori.Options{})
		if err != nil {
			t.Fatalf("%s: %v", db.Name, err)
		}
		if res.MaxK() != c.depth {
			t.Errorf("%s: lattice depth = %d, want %d", db.Name, res.MaxK(), c.depth)
		}
	}
}

func TestQuestValidation(t *testing.T) {
	bad := []QuestConfig{
		{},
		{Items: 10, Transactions: 10},
		{Items: 10, Transactions: 10, AvgTransLen: 3, AvgPatternLen: 2},
		{Items: 10, Transactions: 10, AvgTransLen: 3, AvgPatternLen: 2, NumPatterns: 2, Corruption: 1.0},
	}
	for i, cfg := range bad {
		if _, err := Quest(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestQuestShape(t *testing.T) {
	db, err := Quest(QuestConfig{
		Items: 200, Transactions: 3000, AvgTransLen: 10,
		AvgPatternLen: 4, NumPatterns: 50, Corruption: 0.25, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := db.ComputeStats()
	if st.NumTransactions != 3000 {
		t.Fatalf("transactions = %d", st.NumTransactions)
	}
	if st.AvgLength < 7 || st.AvgLength > 13 {
		t.Fatalf("AvgLength = %.2f, want ~10", st.AvgLength)
	}
	// Pattern structure must produce multi-item frequent sets at a support
	// that plain noise could not reach.
	res, err := apriori.Mine(db, 0.01, apriori.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxK() < 2 {
		t.Fatalf("quest data has no frequent 2-itemsets at 1%%: %d levels", res.MaxK())
	}
}

func TestQuestDeterministic(t *testing.T) {
	cfg := QuestConfig{
		Items: 100, Transactions: 500, AvgTransLen: 8,
		AvgPatternLen: 3, NumPatterns: 20, Corruption: 0.2, Seed: 9,
	}
	a, _ := Quest(cfg)
	b, _ := Quest(cfg)
	for i := range a.Transactions {
		if !a.Transactions[i].Items.Equal(b.Transactions[i].Items) {
			t.Fatalf("transaction %d differs across identical seeds", i)
		}
	}
}

// Property: planted generation never exceeds the item universe and never
// produces an empty transaction.
func TestPlantedInvariantsProperty(t *testing.T) {
	f := func(seed int64, items8, len8 uint8) bool {
		items := int(items8%100) + 20
		avgLen := int(len8%10) + 4
		cfg := PlantedConfig{
			Name: "p", Items: items, Transactions: 60, AvgLen: avgLen,
			Blocks: []Block{{Size: 3, Prob: 0.4}}, Seed: seed,
		}
		db, err := Planted(cfg)
		if err != nil {
			return false
		}
		for _, tr := range db.Transactions {
			if tr.Items.Len() == 0 {
				return false
			}
			for _, it := range tr.Items {
				if int(it) >= items || it < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfValidation(t *testing.T) {
	bad := []ZipfConfig{
		{},
		{Name: "a", Items: 1, Transactions: 10, AvgLen: 1, S: 1.5},
		{Name: "b", Items: 10, Transactions: 10, AvgLen: 10, S: 1.5},
		{Name: "c", Items: 10, Transactions: 10, AvgLen: 3, S: 1.0},
	}
	for _, cfg := range bad {
		if _, err := Zipf(cfg); err == nil {
			t.Errorf("config %q accepted: %+v", cfg.Name, cfg)
		}
	}
}

func TestZipfSkewAndDeterminism(t *testing.T) {
	cfg := ZipfConfig{Name: "z", Items: 500, Transactions: 3000, AvgLen: 8, S: 1.6, Seed: 4}
	a, err := Zipf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Zipf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Transactions {
		if !a.Transactions[i].Items.Equal(b.Transactions[i].Items) {
			t.Fatalf("transaction %d differs across identical seeds", i)
		}
	}
	// Head item must dwarf a tail item: that is the point of the skew.
	counts := make([]int, 500)
	for _, tr := range a.Transactions {
		for _, it := range tr.Items {
			counts[it]++
		}
	}
	if counts[0] < 20*max(counts[400], 1) {
		t.Fatalf("no Zipf skew: head=%d tail=%d", counts[0], counts[400])
	}
	st := a.ComputeStats()
	if st.AvgLength < 4 || st.AvgLength > 10 {
		t.Fatalf("AvgLength = %.1f, want near 8", st.AvgLength)
	}
}

func TestZipfShapedBenchmarks(t *testing.T) {
	k, err := KosarakLike(0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	if k.Name != "Kosarak" || k.Len() != 9900 {
		t.Fatalf("kosarak: %s, %d tx", k.Name, k.Len())
	}
	r, err := RetailLike(0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "Retail" || r.Len() == 0 {
		t.Fatalf("retail: %s, %d tx", r.Name, r.Len())
	}
	// Skewed data must still mine cleanly end to end.
	res, err := apriori.Mine(r, 0.05, apriori.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxK() < 1 {
		t.Fatal("retail-like data has no frequent items at 5%")
	}
}
