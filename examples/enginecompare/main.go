// Enginecompare races every mining engine in the repository on the same
// dataset: the two parallel algorithms from the paper's world (YAFIM on the
// Spark-substitute, MRApriori on the Hadoop-substitute), the vertical
// RDD-Eclat, and the sequential oracles (Apriori, Eclat, FP-Growth). All
// must return identical itemsets; the interesting part is how differently
// they get there.
package main

import (
	"fmt"
	"log"

	"yafim"
)

func main() {
	db, err := yafim.GenMushroom(0.5, 17)
	if err != nil {
		log.Fatal(err)
	}
	st := db.ComputeStats()
	fmt.Printf("dataset: %d transactions, %d items (MushRoom-shaped), Sup = 35%%\n\n",
		st.NumTransactions, st.NumItems)

	engines := yafim.Engines()
	fmt.Printf("%-12s %10s %9s %8s  %s\n", "engine", "time", "frequent", "maxk", "notes")
	var reference *yafim.Result
	for _, e := range engines {
		trace, err := yafim.Mine(db, 0.35, yafim.Options{Engine: e})
		if err != nil {
			log.Fatalf("%v: %v", e, err)
		}
		if reference == nil {
			reference = trace.Result
		} else if !trace.Result.Equal(reference) {
			log.Fatalf("%v disagrees with %v — impossible", e, engines[0])
		}
		notes := "real single-core time"
		if cfg, ok := e.DefaultCluster(); ok {
			notes = fmt.Sprintf("simulated %d-node cluster time", cfg.Nodes)
		}
		fmt.Printf("%-12s %10v %9d %8d  %s\n", e,
			trace.TotalDuration().Round(1e6), trace.Result.NumFrequent(),
			trace.Result.MaxK(), notes)
	}
	fmt.Printf("\nall %d engines returned identical frequent itemsets.\n", len(engines))
}
