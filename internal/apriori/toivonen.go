package apriori

import (
	"fmt"
	"math/rand"

	"yafim/internal/hashtree"
	"yafim/internal/itemset"
)

// ToivonenOptions parameterises the sampling miner.
type ToivonenOptions struct {
	// SampleFraction of transactions mined in memory (default 0.25).
	SampleFraction float64
	// SupportSlack lowers the support threshold on the sample to make
	// misses unlikely (default 0.8: sample mined at 80% of the support).
	SupportSlack float64
	// Seed drives the sample; identical seeds give identical runs.
	Seed int64
	// MaxRetries bounds how many enlarged samples are attempted before
	// falling back to an exact full mine (default 3).
	MaxRetries int
}

// MineToivonen runs Toivonen's sampling algorithm: mine a random sample at
// a slightly lowered threshold, then verify the sample's frequent itemsets
// plus their negative border against the full database in a single scan.
// If no border itemset turns out globally frequent, the sample provably
// found every frequent itemset and the (exactly counted) result is
// returned. Otherwise the sample missed something; the algorithm retries
// with a larger sample and finally falls back to an exact full mine, so the
// returned result is always exact.
func MineToivonen(db *itemset.DB, minSupport float64, opts ToivonenOptions) (*Result, error) {
	if db.Len() == 0 {
		return nil, fmt.Errorf("apriori: empty database %q", db.Name)
	}
	if minSupport <= 0 || minSupport > 1 {
		return nil, fmt.Errorf("apriori: MinSupport %v out of (0,1]", minSupport)
	}
	fraction := opts.SampleFraction
	if fraction <= 0 || fraction > 1 {
		fraction = 0.25
	}
	slack := opts.SupportSlack
	if slack <= 0 || slack > 1 {
		slack = 0.8
	}
	retries := opts.MaxRetries
	if retries <= 0 {
		retries = 3
	}
	minCount := db.MinSupportCount(minSupport)

	for attempt := 0; attempt <= retries; attempt++ {
		if fraction >= 1 {
			break // sample is the database; just mine exactly
		}
		sample := sampleDB(db, fraction, opts.Seed+int64(attempt))
		if sample.Len() == 0 {
			fraction *= 2
			continue
		}
		sampleRes, err := Mine(sample, minSupport*slack, Options{})
		if err != nil {
			return nil, err
		}
		res, borderHit, err := verifyWithBorder(db, sampleRes, minCount)
		if err != nil {
			return nil, err
		}
		if !borderHit {
			return res, nil
		}
		// A border itemset was globally frequent: supersets may be missing.
		// Enlarge the sample and try again.
		fraction *= 2
	}
	return Mine(db, minSupport, Options{})
}

// sampleDB draws a deterministic Bernoulli sample of the transactions.
func sampleDB(db *itemset.DB, fraction float64, seed int64) *itemset.DB {
	rng := rand.New(rand.NewSource(seed))
	var rows [][]itemset.Item
	for _, tr := range db.Transactions {
		if rng.Float64() < fraction {
			rows = append(rows, tr.Items)
		}
	}
	return itemset.NewDB(db.Name+"(sample)", rows)
}

// verifyWithBorder counts the sample-frequent itemsets and their negative
// border exactly over db. It returns the exact frequent itemsets among
// them, and whether any border itemset reached the global threshold.
func verifyWithBorder(db *itemset.DB, sampleRes *Result, minCount int) (*Result, bool, error) {
	frequentKeys := make(map[string]bool, sampleRes.NumFrequent())
	for _, level := range sampleRes.Levels {
		for _, sc := range level.Sets {
			frequentKeys[sc.Set.Key()] = true
		}
	}

	// Candidates per length: the sample-frequent itemsets plus the negative
	// border — minimal itemsets not sample-frequent whose subsets all are.
	byLen := map[int][]itemset.Itemset{}
	border := map[string]bool{}
	// Border at length 1: every item that is not sample-frequent.
	for it := 0; it < db.NumItems(); it++ {
		s := itemset.New(itemset.Item(it))
		byLen[1] = append(byLen[1], s)
		if !frequentKeys[s.Key()] {
			border[s.Key()] = true
		}
	}
	maxLen := 1
	for k := 2; k <= sampleRes.MaxK()+1; k++ {
		prev := sampleRes.Frequent(k - 1)
		if len(prev) == 0 {
			break
		}
		cands, err := Gen(SetsOf(prev))
		if err != nil {
			return nil, false, err
		}
		for _, c := range cands {
			byLen[k] = append(byLen[k], c)
			if !frequentKeys[c.Key()] {
				border[c.Key()] = true
			}
		}
		if len(byLen[k]) > 0 {
			maxLen = k
		}
	}

	res := &Result{MinSupport: minCount}
	borderHit := false
	for k := 1; k <= maxLen; k++ {
		cands := byLen[k]
		if len(cands) == 0 {
			continue
		}
		counts, _ := hashtree.Build(cands).CountSupports(db.Transactions)
		var lk []SetCount
		for i, c := range counts {
			if c < minCount {
				continue
			}
			lk = append(lk, SetCount{Set: cands[i], Count: c})
			if border[cands[i].Key()] {
				borderHit = true
			}
		}
		if len(lk) > 0 {
			res.Levels = append(res.Levels, NewLevel(k, lk))
		}
	}
	return res, borderHit, nil
}
