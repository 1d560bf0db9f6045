package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 1, 9, 5}, 5},
	} {
		in := append([]float64(nil), tc.in...)
		if got := median(in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
		for i := range in {
			if in[i] != tc.in[i] {
				t.Fatalf("median reordered its input: %v became %v", tc.in, in)
			}
		}
	}
}

func TestMean(t *testing.T) {
	if got := mean(nil); got != 0 {
		t.Errorf("mean(nil) = %v, want 0", got)
	}
	if got := mean([]float64{190, 235, 190, 235}); got != 212.5 {
		t.Errorf("mean = %v, want 212.5", got)
	}
}

func TestRatio(t *testing.T) {
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v, want 0.75", got)
	}
	if got := ratio(0, 0); got != 0 {
		t.Errorf("ratio over no attempts = %v, want 0", got)
	}
	if got := ratio(5, 0); math.IsInf(got, 0) || math.IsNaN(got) || got != 0 {
		t.Errorf("ratio(5, 0) = %v, want 0", got)
	}
}

func TestTracerWritesNestedSpans(t *testing.T) {
	sp := newTracer("run-1")
	root := sp.Begin(0, "run")
	child := sp.Begin(root, "child")
	sp.End(child, map[string]int64{"ops": 7})
	if d := sp.End(root, nil); d < 0 {
		t.Fatalf("root span lasted %v s", d)
	}
	path := filepath.Join(t.TempDir(), "spans", "run.json")
	if err := sp.Write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Counts["ops"] != 7 ||
		spans[0].Run != "run-1" || spans[1].End < spans[1].Start || spans[0].End < spans[1].End {
		t.Fatalf("spans = %+v", spans)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var sp *tracer
	if id := sp.Begin(0, "x"); id != 0 {
		t.Fatalf("nil tracer span id %d", id)
	}
	if d := sp.End(0, nil); d != 0 {
		t.Fatalf("nil tracer span lasted %v", d)
	}
}

func TestHeapPeakSeesAllocation(t *testing.T) {
	h := watchHeap()
	buf := make([]byte, 64<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	peak := h.Stop()
	runtime.KeepAlive(buf)
	if peak < 64 {
		t.Fatalf("peak heap %.1f MiB while holding a 64 MiB buffer", peak)
	}
}
