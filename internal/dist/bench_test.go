package dist_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"yafim/internal/apriori"
	"yafim/internal/datagen"
	"yafim/internal/dataset"
	"yafim/internal/dist"
	"yafim/internal/itemset"
	"yafim/internal/mapreduce"
	"yafim/internal/mrapriori"
	"yafim/internal/sim"
)

// chessCountJob is the job both worker benchmarks run: MRApriori's pass-2
// count job over Chess (seed 2014), whose 37-item rows the hash tree walks,
// with the pairs of its items frequent at 85%, chess-dist's support, as
// candidates. It is built as a worker builds it, for two reducers.
type chessCountJob struct {
	tasks mapreduce.Tasks
	cands int
	// quarters are the input file's four byte quarters, the last one
	// running to the end of the file.
	quarters [4]dist.Split
}

const chessReducers = 2

func buildChessCountJob(b *testing.B) chessCountJob {
	b.Helper()
	db, err := datagen.ChessLike(1, 2014)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "chess.dat")
	if err := dataset.SaveFile(db, path); err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	l1, err := apriori.Mine(db, 0.85, apriori.Options{MaxK: 1})
	if err != nil {
		b.Fatal(err)
	}
	cands, err := apriori.Gen(apriori.SetsOf(l1.Frequent(1)))
	if err != nil {
		b.Fatal(err)
	}
	spec := mrapriori.CountSpec("count", path, dist.ScratchDir+"/C2", cands,
		db.MinSupportCount(0.85), chessReducers, 0)
	tasks, err := dist.BuildJob(spec.Type, spec.Params, spec.Cache)
	if err != nil {
		b.Fatal(err)
	}
	job := chessCountJob{tasks: tasks, cands: len(cands)}
	q := fi.Size() / 4
	for i := range job.quarters {
		job.quarters[i] = dist.Split{Path: path, Offset: int64(i) * q, Length: q}
	}
	job.quarters[3].Length = fi.Size() - 3*q
	return job
}

// mapSplit runs the job's map task t over split, read through cache.
func (j chessCountJob) mapSplit(b *testing.B, t int, cache *dist.BlockCache, split dist.Split) *mapreduce.MapOutput {
	read := func() ([]itemset.Itemset, int64, error) { return cache.Get(split) }
	out, err := mapreduce.MapTask(t, j.tasks.NewMapper(), j.tasks.NewCombiner(), read, chessReducers, new(sim.Ledger))
	if err != nil {
		b.Fatal(err)
	}
	return out
}

// BenchmarkWorkerCachedMap measures a worker's map task on a later pass:
// mapreduce.MapTask of the Chess count job over the first quarter of its
// input, already in the block cache, the path
// TestCachedPassAllocsFlatInRows drives, without HTTP.
func BenchmarkWorkerCachedMap(b *testing.B) {
	job := buildChessCountJob(b)
	split := job.quarters[0]
	cache := dist.NewBlockCache(1 << 30)
	rows, _, err := cache.Get(split)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := job.mapSplit(b, 0, cache, split); out.InputRecords != int64(len(rows)) {
			b.Fatalf("mapped %d records, want %d", out.InputRecords, len(rows))
		}
	}
	items := 0
	for _, r := range rows {
		items += len(r)
	}
	b.ReportMetric(float64(len(rows)), "records")
	b.ReportMetric(float64(items), "items")
	b.ReportMetric(float64(job.cands), "cands")
}

// BenchmarkWorkerReduce measures a worker's reduce task, the path runReduce
// takes once its fetches are in, without HTTP: mapreduce.NewReduceTask,
// then ParseRun and Merge of each map task's run frame, then Reduce. The
// frames are reduce partition 0 of the Chess count job's four map tasks,
// one per quarter of its input, each framed by AppendRun as a worker
// serves it.
func BenchmarkWorkerReduce(b *testing.B) {
	job := buildChessCountJob(b)
	cache := dist.NewBlockCache(1 << 30)
	var frames [][]byte
	records, frameBytes := 0, 0
	for t, split := range job.quarters {
		frame := mapreduce.AppendRun(nil, job.mapSplit(b, t, cache, split).Runs[0])
		frames = append(frames, frame)
		records += bytes.Count(frame, []byte{'\n'})
		frameBytes += len(frame)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt := mapreduce.NewReduceTask(0, job.tasks.NewReducer(), new(sim.Ledger))
		for _, frame := range frames {
			run, err := mapreduce.ParseRun(frame)
			if err != nil {
				b.Fatal(err)
			}
			rt.Merge(run)
		}
		if _, err := rt.Reduce(func(k, v string) {}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(records), "records")
	b.ReportMetric(float64(frameBytes), "frame-bytes")
}
