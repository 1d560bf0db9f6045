package mapreduce

import (
	"context"
	"strings"
	"testing"

	"yafim/internal/cluster"
	"yafim/internal/dfs"
)

func BenchmarkItemCountJob(b *testing.B) {
	fs := dfs.New(4, dfs.WithBlockSize(1<<14), dfs.WithReplication(2))
	if err := fs.WriteFile("/in/data.txt", []byte(strings.Repeat(corpus, 200)), nil); err != nil {
		b.Fatal(err)
	}
	r, err := NewRunner(fs, cluster.Local())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CleanOutput(fs, "/out/wc")
		if _, _, err := r.RunContext(context.Background(), itemCountJob(true)); err != nil {
			b.Fatal(err)
		}
	}
}
