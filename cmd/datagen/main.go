// Command datagen generates the paper's benchmark datasets (or custom IBM
// Quest-style synthetic data) as .dat transaction files.
//
// Usage:
//
//	datagen -dataset MushRoom -out mushroom.dat
//	datagen -dataset quest -items 1000 -transactions 50000 -avglen 12 -out t12.dat
package main

import (
	"flag"
	"fmt"
	"os"

	"yafim"
	"yafim/internal/datagen"
	"yafim/internal/itemset"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name  = flag.String("dataset", "", "MushRoom, T10I4D100K, Chess, Pumsb_star, MedicalCases, Kosarak, Retail, or quest (required)")
		out   = flag.String("out", "", "output .dat path (required)")
		scale = flag.Float64("scale", 1.0, "transaction-count multiplier (1.0 = paper size)")
		seed  = flag.Int64("seed", 2014, "generator seed")

		// Custom Quest parameters (only with -dataset quest).
		items  = flag.Int("items", 870, "quest: item universe size")
		txs    = flag.Int("transactions", 100000, "quest: transaction count")
		avgLen = flag.Int("avglen", 10, "quest: average transaction length")
		patLen = flag.Int("patlen", 4, "quest: average pattern length")
		npat   = flag.Int("patterns", 200, "quest: number of patterns")
		corr   = flag.Float64("corruption", 0.25, "quest: corruption level")
	)
	flag.Parse()
	if *name == "" || *out == "" {
		flag.Usage()
		return fmt.Errorf("-dataset and -out are required")
	}

	var (
		db  *itemset.DB
		err error
	)
	switch *name {
	case "MushRoom":
		db, err = yafim.GenMushroom(*scale, *seed)
	case "T10I4D100K":
		db, err = yafim.GenT10I4D100K(*scale, *seed)
	case "Chess":
		db, err = yafim.GenChess(*scale, *seed)
	case "Pumsb_star":
		db, err = yafim.GenPumsbStar(*scale, *seed)
	case "MedicalCases":
		db, err = yafim.GenMedical(*scale, *seed)
	case "Kosarak":
		db, err = yafim.GenKosarak(*scale, *seed)
	case "Retail":
		db, err = yafim.GenRetail(*scale, *seed)
	case "quest":
		db, err = datagen.Quest(datagen.QuestConfig{
			Items:         *items,
			Transactions:  int(float64(*txs) * *scale),
			AvgTransLen:   *avgLen,
			AvgPatternLen: *patLen,
			NumPatterns:   *npat,
			Corruption:    *corr,
			Seed:          *seed,
		})
	default:
		return fmt.Errorf("unknown dataset %q", *name)
	}
	if err != nil {
		return err
	}
	if err := yafim.SaveFile(db, *out); err != nil {
		return err
	}
	fi, err := os.Stat(*out)
	if err != nil {
		return err
	}
	st := db.ComputeStats()
	fmt.Printf("wrote %s: %d transactions, %d items, avg length %.1f (%d bytes)\n",
		*out, st.NumTransactions, st.NumItems, st.AvgLength, fi.Size())
	return nil
}
