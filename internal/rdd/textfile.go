package rdd

import (
	"yafim/internal/dfs"
	"yafim/internal/sim"
)

// TextFile creates an RDD of the lines of a DFS file, one partition per
// input split, mirroring SparkContext.textFile(path, minSplits) over HDFS:
// one split per block by default, finer ranges when minSplits asks for more
// parallelism. Reading a partition charges the split's disk traffic plus one
// CPU op per line; cache the result to pay that only once across iterations.
func TextFile(ctx *Context, fs *dfs.FileSystem, path string, minSplits int) (*RDD[string], error) {
	// The DFS crashes with a node and receives the plan's read faults.
	ctx.drv.AttachFS(fs)
	splits, err := fs.SplitsN(path, minSplits)
	if err != nil {
		return nil, err
	}
	if len(splits) == 0 {
		splits = []dfs.Split{{Path: path}}
	}
	out := newRDD(ctx, "textFile("+path+")", len(splits), nil,
		func(p int, led *sim.Ledger) ([]string, error) {
			lines, _, err := fs.ReadLinesContext(ctx.goCtx, splits[p], led)
			if err != nil {
				return nil, err
			}
			led.AddCPU(float64(len(lines)))
			return lines, nil
		})
	// Each partition prefers the nodes holding its split's block replicas
	// (valid because the engines size the DFS to the cluster's node count).
	out.prefs = make([][]int, len(splits))
	for i, s := range splits {
		out.prefs[i] = s.Locations
	}
	return out, nil
}
