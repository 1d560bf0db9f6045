// Package sim provides the deterministic performance model used by the
// execution engines: metered task costs, a ledger for accumulating them from
// concurrent workers, and a list scheduler that converts the costs of a
// stage's tasks into a virtual makespan for a configured cluster.
//
// The design deliberately separates *results* from *time*. The RDD and
// MapReduce engines execute real Go code on real goroutines to compute exact
// answers; while doing so they count the work performed (CPU operations,
// bytes moved). This package turns those counts into reproducible virtual
// wall-clock durations so that experiments modelled on a 12-node cluster run
// identically on any development machine.
package sim

import (
	"fmt"
	"sync"
	"time"
)

// Cost records the resource demand of one task. CPUOps is an abstract unit
// of compute (engines count, e.g., one op per item touched or candidate
// checked); the byte fields are metered I/O volumes.
type Cost struct {
	CPUOps    float64 `json:"cpu_ops"`    // abstract compute operations
	DiskRead  int64   `json:"disk_read"`  // bytes read from node-local or distributed disk
	DiskWrite int64   `json:"disk_write"` // bytes written to node-local or distributed disk
	Net       int64   `json:"net"`        // bytes transferred over the cluster network
}

// Add returns the component-wise sum of c and d.
func (c Cost) Add(d Cost) Cost {
	return Cost{
		CPUOps:    c.CPUOps + d.CPUOps,
		DiskRead:  c.DiskRead + d.DiskRead,
		DiskWrite: c.DiskWrite + d.DiskWrite,
		Net:       c.Net + d.Net,
	}
}

// Sub returns the component-wise difference c - d, used to delta two
// counter or cost snapshots.
func (c Cost) Sub(d Cost) Cost {
	return Cost{
		CPUOps:    c.CPUOps - d.CPUOps,
		DiskRead:  c.DiskRead - d.DiskRead,
		DiskWrite: c.DiskWrite - d.DiskWrite,
		Net:       c.Net - d.Net,
	}
}

// Norm collapses the cost into a single cluster-independent magnitude (the
// component sum). It is not a time estimate — use TaskTime for that — but it
// orders tasks by how much data-dependent work they carry, which is what the
// skew analysis needs when no cluster config is at hand.
func (c Cost) Norm() float64 {
	return c.CPUOps + float64(c.DiskRead) + float64(c.DiskWrite) + float64(c.Net)
}

// String renders the cost compactly for logs and reports, with byte fields
// in human units.
func (c Cost) String() string {
	return fmt.Sprintf("cpu=%.0f dr=%s dw=%s net=%s",
		c.CPUOps, HumanBytes(c.DiskRead), HumanBytes(c.DiskWrite), HumanBytes(c.Net))
}

// HumanBytes renders a byte count in the largest fitting binary unit with
// one decimal (1536 -> "1.5KB"), keeping exact byte counts below 1 KB.
func HumanBytes(n int64) string {
	abs := n
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs < 1<<10:
		return fmt.Sprintf("%dB", n)
	case abs < 1<<20:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	case abs < 1<<30:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	default:
		return fmt.Sprintf("%.1fGB", float64(n)/(1<<30))
	}
}

// Ledger accumulates the cost of a single task. Worker goroutines each own
// one Ledger, so the methods are cheap; Ledger is nevertheless safe for
// concurrent use because substrate layers (e.g. the DFS) may be shared.
type Ledger struct {
	mu   sync.Mutex
	cost Cost
}

// AddCPU records n abstract compute operations.
func (l *Ledger) AddCPU(n float64) {
	l.mu.Lock()
	l.cost.CPUOps += n
	l.mu.Unlock()
}

// AddDiskRead records n bytes read from disk.
func (l *Ledger) AddDiskRead(n int64) {
	l.mu.Lock()
	l.cost.DiskRead += n
	l.mu.Unlock()
}

// AddDiskWrite records n bytes written to disk.
func (l *Ledger) AddDiskWrite(n int64) {
	l.mu.Lock()
	l.cost.DiskWrite += n
	l.mu.Unlock()
}

// AddNet records n bytes moved across the network.
func (l *Ledger) AddNet(n int64) {
	l.mu.Lock()
	l.cost.Net += n
	l.mu.Unlock()
}

// Add merges an entire pre-computed cost into the ledger.
func (l *Ledger) Add(c Cost) {
	l.mu.Lock()
	l.cost = l.cost.Add(c)
	l.mu.Unlock()
}

// Total returns a snapshot of the accumulated cost.
func (l *Ledger) Total() Cost {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cost
}

// StageReport summarises one executed stage: how many tasks ran, their
// summed cost, and the virtual makespan the scheduler computed for them.
type StageReport struct {
	Name     string
	Tasks    int
	Total    Cost
	Makespan time.Duration
}

// JobReport aggregates the stages of one logical job (one MapReduce job, or
// one RDD action) into a total virtual duration.
type JobReport struct {
	Name     string
	Stages   []StageReport
	Overhead time.Duration // startup / scheduling time outside any stage
}

// Duration returns the job's total virtual time: startup overhead plus the
// sum of stage makespans (stages within a job are sequential barriers, as in
// both Hadoop and Spark's synchronous stage model).
func (j *JobReport) Duration() time.Duration {
	d := j.Overhead
	for _, s := range j.Stages {
		d += s.Makespan
	}
	return d
}
