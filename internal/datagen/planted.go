package datagen

import (
	"fmt"
	"math/rand"

	"yafim/internal/itemset"
)

// Block is one planted high-support itemset: Size consecutive items that
// appear together (all of them) in a Prob fraction of transactions. Blocks
// are what give the categorical benchmark datasets their deep frequent
// itemset lattices at the paper's support thresholds.
type Block struct {
	Size int
	Prob float64
}

// PlantedConfig parameterises the planted-block generator. Blocks are laid
// out over disjoint item ranges starting at item 0; the rest of the item
// universe supplies per-transaction noise items that pad each transaction
// to AvgLen.
type PlantedConfig struct {
	Name         string
	Items        int
	Transactions int
	AvgLen       int
	Blocks       []Block
	Seed         int64
}

// Validate reports a descriptive error for unusable parameters.
func (c PlantedConfig) Validate() error {
	if c.Items <= 0 || c.Transactions <= 0 || c.AvgLen <= 0 {
		return fmt.Errorf("datagen: planted %q: need positive Items, Transactions, AvgLen", c.Name)
	}
	total := 0
	expected := 0.0
	for i, b := range c.Blocks {
		if b.Size <= 0 || b.Prob <= 0 || b.Prob > 1 {
			return fmt.Errorf("datagen: planted %q: block %d invalid (%+v)", c.Name, i, b)
		}
		total += b.Size
		expected += float64(b.Size) * b.Prob
	}
	if total >= c.Items {
		return fmt.Errorf("datagen: planted %q: blocks cover %d of %d items, leaving no noise pool",
			c.Name, total, c.Items)
	}
	if expected > float64(c.AvgLen) {
		return fmt.Errorf("datagen: planted %q: expected block items %.1f exceed AvgLen %d",
			c.Name, expected, c.AvgLen)
	}
	return nil
}

// Planted generates the dataset: each transaction independently includes
// each block with its probability (all items of the block at once), then is
// padded with uniformly random noise items drawn from the remaining
// universe up to the target length.
func Planted(cfg PlantedConfig) (*itemset.DB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	blockStart := make([]int, len(cfg.Blocks))
	noiseStart := 0
	for i, b := range cfg.Blocks {
		blockStart[i] = noiseStart
		noiseStart += b.Size
	}
	noisePool := cfg.Items - noiseStart

	rows := make([][]itemset.Item, cfg.Transactions)
	for t := range rows {
		row := make([]itemset.Item, 0, cfg.AvgLen)
		for i, b := range cfg.Blocks {
			if rng.Float64() < b.Prob {
				for k := 0; k < b.Size; k++ {
					row = append(row, itemset.Item(blockStart[i]+k))
				}
			}
		}
		// Pad with distinct noise items; target length jitters by ±2 to
		// avoid a perfectly constant row length.
		target := cfg.AvgLen + rng.Intn(5) - 2
		if target < len(row) {
			target = len(row)
		}
		if want := target - len(row); want > 0 {
			if want > noisePool {
				want = noisePool
			}
			seen := make(map[int]struct{}, want)
			for len(seen) < want {
				n := rng.Intn(noisePool)
				if _, dup := seen[n]; !dup {
					seen[n] = struct{}{}
					row = append(row, itemset.Item(noiseStart+n))
				}
			}
		}
		rows[t] = row
	}
	return itemset.NewDB(cfg.Name, rows), nil
}

// scaleCount scales a transaction count, keeping a usable floor.
func scaleCount(n int, scale float64) int {
	if scale <= 0 {
		scale = 1
	}
	s := int(float64(n) * scale)
	if s < 50 {
		s = 50
	}
	return s
}

// MushroomLike generates a dataset with the shape of UCI MushRoom
// (Table I: 119 items, 8124 transactions, 23 items per transaction).
// At the paper's 35% support it yields a lattice eight levels deep.
func MushroomLike(scale float64, seed int64) (*itemset.DB, error) {
	return Planted(PlantedConfig{
		Name:         "MushRoom",
		Items:        119,
		Transactions: scaleCount(8124, scale),
		AvgLen:       23,
		Blocks: []Block{
			{Size: 8, Prob: 0.55},
			{Size: 6, Prob: 0.45},
			{Size: 4, Prob: 0.40},
		},
		Seed: seed,
	})
}

// ChessLike generates a dataset with the shape of UCI Chess (Table I: 75
// items, 3196 transactions, 37 items per transaction) — very dense, mined
// at 85% support.
func ChessLike(scale float64, seed int64) (*itemset.DB, error) {
	return Planted(PlantedConfig{
		Name:         "Chess",
		Items:        75,
		Transactions: scaleCount(3196, scale),
		AvgLen:       37,
		Blocks: []Block{
			{Size: 10, Prob: 0.90},
			{Size: 8, Prob: 0.88},
			{Size: 6, Prob: 0.87},
		},
		Seed: seed,
	})
}

// PumsbStarLike generates a dataset with the shape of Pumsb_star (Table I:
// 2113 items, 49046 transactions, ~50 items per transaction), mined at 65%
// support.
func PumsbStarLike(scale float64, seed int64) (*itemset.DB, error) {
	return Planted(PlantedConfig{
		Name:         "Pumsb_star",
		Items:        2113,
		Transactions: scaleCount(49046, scale),
		AvgLen:       50,
		Blocks: []Block{
			{Size: 8, Prob: 0.72},
			{Size: 5, Prob: 0.68},
			{Size: 4, Prob: 0.66},
		},
		Seed: seed,
	})
}

// T10I4D100K generates the paper's IBM synthetic dataset equivalent via the
// Quest generator: 870 items, 100000 transactions, average length 10,
// average pattern length 4; mined at 0.25% support.
func T10I4D100K(scale float64, seed int64) (*itemset.DB, error) {
	return Quest(QuestConfig{
		Name:          "T10I4D100K",
		Items:         870,
		Transactions:  scaleCount(100000, scale),
		AvgTransLen:   10,
		AvgPatternLen: 4,
		NumPatterns:   200,
		Corruption:    0.25,
		Seed:          seed,
	})
}

// MedicalCases generates the §V-D medical application dataset: patient
// cases whose items are medical entities (diagnoses, drugs, symptoms) with
// planted comorbidity clusters, mined at 3% support.
func MedicalCases(scale float64, seed int64) (*itemset.DB, error) {
	return Planted(PlantedConfig{
		Name:         "MedicalCases",
		Items:        1200,
		Transactions: scaleCount(40000, scale),
		AvgLen:       14,
		Blocks: []Block{
			{Size: 7, Prob: 0.045}, // chronic comorbidity cluster
			{Size: 5, Prob: 0.06},  // common treatment bundle
			{Size: 4, Prob: 0.09},  // seasonal infection cluster
			{Size: 3, Prob: 0.15},  // routine diagnostics
		},
		Seed: seed,
	})
}
