package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// median returns the middle value of xs, or the mean of the two middle
// values for an even count, without reordering xs. It returns 0 for no
// values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// mean returns the arithmetic mean of xs, or 0 for no values.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// ratio returns num/den, or 0 when den is 0: a rate over no attempts is
// reported as nothing rather than as NaN, which JSON cannot carry.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// heapObjects is the runtime metric sampled for peak heap: bytes of heap
// memory occupied by live objects and by dead ones not yet swept.
const heapObjects = "/memory/classes/heap/objects:bytes"

// heapPeak samples the process's heap occupancy every millisecond until
// stopped, keeping the maximum. It sees the whole process, so on the
// distributed workloads it covers the master and both in-process workers.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func watchHeap() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	h.peak = readHeap()
	go func() {
		defer close(h.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				if v := readHeap(); v > h.peak {
					h.peak = v
				}
			}
		}
	}()
	return h
}

// Stop ends sampling, waits for the sampler to exit and returns the peak in
// MiB.
func (h *heapPeak) Stop() float64 {
	close(h.stop)
	<-h.done
	if v := readHeap(); v > h.peak {
		h.peak = v
	}
	return float64(h.peak) / (1 << 20)
}

func readHeap() uint64 {
	s := []metrics.Sample{{Name: heapObjects}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// span is one timed call the benchmark made into a layer of the program.
// Start and End are seconds since the run began; Parent is 0 for a root.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Run    string           `json:"run"`
	Name   string           `json:"name"`
	Start  float64          `json:"start_s"`
	End    float64          `json:"end_s"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps the spans of one traced run in memory until Write.
type tracer struct {
	mu    sync.Mutex
	run   string
	t0    time.Time
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// Begin opens a span under parent and returns its id. A nil tracer records
// nothing; its span ids are 0.
func (t *tracer) Begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name,
		Start: time.Since(t.t0).Seconds()})
	return id
}

// End closes span id, attaching the counts read at its boundary, and
// returns its duration in seconds.
func (t *tracer) End(id int, counts map[string]int64) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Seconds()
	s.Counts = counts
	return s.End - s.Start
}

// Write stores the spans as one JSON array at path.
func (t *tracer) Write(path string) error {
	t.mu.Lock()
	data, err := json.MarshalIndent(t.spans, "", " ")
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
