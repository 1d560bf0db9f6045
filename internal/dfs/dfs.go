// Package dfs implements a simulated distributed file system modelled on
// HDFS: a single namespace of immutable files, each split into fixed-size
// blocks placed on worker nodes with a configurable replication factor.
//
// File contents live in memory (the simulation runs on one machine), but
// every read and write is metered through a sim.Ledger so the performance
// model can charge disk and network time exactly where a real HDFS would:
// writes stream through a replication pipeline (disk write per replica plus
// network hops between replicas), reads stream from the nearest replica.
package dfs

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"yafim/internal/chaos"
	"yafim/internal/exec"
	"yafim/internal/obs"
	"yafim/internal/sim"
)

// DefaultBlockSize mirrors the 64 MB block size of Hadoop 1.x.
const DefaultBlockSize = 64 << 20

// FileSystem is a simulated HDFS instance. It is safe for concurrent use.
type FileSystem struct {
	mu          sync.RWMutex
	nodes       int
	blockSize   int64
	replication int
	files       map[string]*file
	nextNode    int           // round-robin placement cursor
	rec         *obs.Recorder // counts I/O volume; nil-safe
	dead        []bool        // nodes lost to a crash; receive no new replicas
	plan        *chaos.Plan   // injected block-read failures; nil-safe
}

type file struct {
	blocks []block
	size   int64
}

type block struct {
	data     []byte
	replicas []int // node ids holding a copy
}

// Option configures a FileSystem.
type Option func(*FileSystem)

// WithBlockSize overrides the default 64 MB block size.
func WithBlockSize(n int64) Option {
	return func(fs *FileSystem) { fs.blockSize = n }
}

// WithReplication overrides the default replication factor of 3.
func WithReplication(r int) Option {
	return func(fs *FileSystem) { fs.replication = r }
}

// New creates a file system spanning the given number of data nodes.
func New(nodes int, opts ...Option) *FileSystem {
	if nodes <= 0 {
		panic(fmt.Sprintf("dfs: need at least one node, got %d", nodes))
	}
	fs := &FileSystem{
		nodes:       nodes,
		blockSize:   DefaultBlockSize,
		replication: 3,
		files:       make(map[string]*file),
		dead:        make([]bool, nodes),
	}
	for _, o := range opts {
		o(fs)
	}
	if fs.blockSize <= 0 {
		panic("dfs: block size must be positive")
	}
	if fs.replication <= 0 {
		fs.replication = 1
	}
	if fs.replication > nodes {
		fs.replication = nodes
	}
	return fs
}

// SetRecorder attaches a telemetry recorder that counts the file system's
// read and write volume (including replication). A nil recorder disables
// counting.
func (fs *FileSystem) SetRecorder(rec *obs.Recorder) {
	fs.mu.Lock()
	fs.rec = rec
	fs.mu.Unlock()
}

// recorder fetches the attached recorder under the lock, so counting on the
// read paths does not race with SetRecorder.
func (fs *FileSystem) recorder() *obs.Recorder {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.rec
}

// WriteFile stores data at path, replacing any existing file. The ledger is
// charged for the replication pipeline: every replica's disk write plus the
// network transfer to each non-local replica.
func (fs *FileSystem) WriteFile(path string, data []byte, led *sim.Ledger) error {
	if path == "" {
		return fmt.Errorf("dfs: empty path")
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f := &file{size: int64(len(data))}
	for off := int64(0); off < int64(len(data)) || (off == 0 && len(data) == 0); off += fs.blockSize {
		end := off + fs.blockSize
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		b := block{data: data[off:end], replicas: fs.placeReplicasLocked()}
		f.blocks = append(f.blocks, b)
		if len(data) == 0 {
			break
		}
	}
	fs.files[path] = f
	if led != nil {
		fs.ChargeWrite(int64(len(data)), led)
	}
	fs.rec.AddDFSWrite(int64(len(data)) * int64(fs.replication))
	return nil
}

// ChargeWrite charges led what writing n bytes costs: a disk write per
// replica plus the network hop to each non-local replica. It lets a task pay
// for output that its driver commits later with WriteFile and a nil ledger.
func (fs *FileSystem) ChargeWrite(n int64, led *sim.Ledger) {
	led.AddDiskWrite(n * int64(fs.replication))
	led.AddNet(n * int64(fs.replication-1))
}

func (fs *FileSystem) placeReplicasLocked() []int {
	alive := 0
	for n := 0; n < fs.nodes; n++ {
		if !fs.dead[n] {
			alive++
		}
	}
	want := fs.replication
	if alive > 0 && want > alive {
		want = alive
	}
	replicas := make([]int, 0, want)
	for len(replicas) < want {
		n := fs.nextNode
		fs.nextNode = (fs.nextNode + 1) % fs.nodes
		if fs.dead[n] && alive > 0 {
			continue
		}
		replicas = append(replicas, n)
	}
	return replicas
}

// ReadFile returns the full contents of path, charging the ledger one disk
// read of the file size.
func (fs *FileSystem) ReadFile(path string, led *sim.Ledger) ([]byte, error) {
	fs.mu.RLock()
	f, ok := fs.files[path]
	fs.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("dfs: %s: no such file", path)
	}
	out := make([]byte, 0, f.size)
	for _, b := range f.blocks {
		out = append(out, b.data...)
	}
	if led != nil {
		led.AddDiskRead(f.size)
	}
	fs.recorder().AddDFSRead(f.size)
	return out, nil
}

// ReadFileContext is ReadFile with cooperative cancellation: a canceled or
// expired context fails the read up front, before any bytes are charged to
// the ledger, with an error matching exec.ErrCanceled or
// exec.ErrDeadlineExceeded.
func (fs *FileSystem) ReadFileContext(ctx context.Context, path string, led *sim.Ledger) ([]byte, error) {
	if err := exec.ContextErr(ctx); err != nil {
		return nil, fmt.Errorf("dfs: read %s: %w", path, err)
	}
	return fs.ReadFile(path, led)
}

// ReadRange returns length bytes of path starting at off. Short ranges at
// end of file are truncated rather than erroring, matching HDFS semantics
// for readers that probe past EOF. The ledger is charged for the bytes
// actually returned.
func (fs *FileSystem) ReadRange(path string, off, length int64, led *sim.Ledger) ([]byte, error) {
	if off < 0 || length < 0 {
		return nil, fmt.Errorf("dfs: %s: negative range (%d,%d)", path, off, length)
	}
	fs.mu.RLock()
	f, ok := fs.files[path]
	fs.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("dfs: %s: no such file", path)
	}
	if off >= f.size {
		return nil, nil
	}
	end := off + length
	if end > f.size {
		end = f.size
	}
	out := make([]byte, 0, end-off)
	pos := int64(0)
	for _, b := range f.blocks {
		blockEnd := pos + int64(len(b.data))
		if blockEnd > off && pos < end {
			lo, hi := int64(0), int64(len(b.data))
			if off > pos {
				lo = off - pos
			}
			if end < blockEnd {
				hi = end - pos
			}
			out = append(out, b.data[lo:hi]...)
		}
		pos = blockEnd
	}
	if led != nil {
		led.AddDiskRead(int64(len(out)))
	}
	fs.recorder().AddDFSRead(int64(len(out)))
	// An injected block-read failure never loses data — replication always
	// has another copy — it just re-fetches the range from a remote replica,
	// paying network time on top of the disk read.
	if len(out) > 0 && fs.chaosPlan().ReadFails(path, off) {
		if led != nil {
			led.AddNet(int64(len(out)))
		}
		fs.recorder().AddBlockReadRetry()
	}
	return out, nil
}

// ReadRangeContext is ReadRange with cooperative cancellation, mirroring
// ReadFileContext.
func (fs *FileSystem) ReadRangeContext(ctx context.Context, path string, off, length int64, led *sim.Ledger) ([]byte, error) {
	if err := exec.ContextErr(ctx); err != nil {
		return nil, fmt.Errorf("dfs: read %s: %w", path, err)
	}
	return fs.ReadRange(path, off, length, led)
}

// Stat returns the size of path and the number of blocks it occupies.
func (fs *FileSystem) Stat(path string) (size int64, blocks int, err error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[path]
	if !ok {
		return 0, 0, fmt.Errorf("dfs: %s: no such file", path)
	}
	return f.size, len(f.blocks), nil
}

// Delete removes path. Deleting a missing file is an error, as in HDFS.
func (fs *FileSystem) Delete(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[path]; !ok {
		return fmt.Errorf("dfs: %s: no such file", path)
	}
	delete(fs.files, path)
	return nil
}

// List returns the paths with the given prefix, sorted.
func (fs *FileSystem) List(prefix string) []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var out []string
	for p := range fs.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Split describes a byte range of a file assigned to one map task, plus the
// node ids that hold a local replica of its first block (for locality-aware
// scheduling).
type Split struct {
	Path      string
	Offset    int64
	Length    int64
	Locations []int
}

// SplitsN divides path into at least minSplits input splits (subject to the
// file being large enough), the way Hadoop's FileInputFormat honours a
// requested map-task count by cutting blocks into smaller ranges. Record
// boundaries are reconciled by the record reader, not here. minSplits <= 1
// falls back to one split per block.
func (fs *FileSystem) SplitsN(path string, minSplits int) ([]Split, error) {
	blockSplits, err := fs.Splits(path)
	if err != nil {
		return nil, err
	}
	var size int64
	for _, s := range blockSplits {
		size += s.Length
	}
	if minSplits <= len(blockSplits) || size == 0 {
		return blockSplits, nil
	}
	if int64(minSplits) > size {
		minSplits = int(size)
	}
	target := (size + int64(minSplits) - 1) / int64(minSplits)
	var out []Split
	for _, bs := range blockSplits {
		for off := bs.Offset; off < bs.Offset+bs.Length; off += target {
			length := target
			if off+length > bs.Offset+bs.Length {
				length = bs.Offset + bs.Length - off
			}
			out = append(out, Split{
				Path:      path,
				Offset:    off,
				Length:    length,
				Locations: append([]int(nil), bs.Locations...),
			})
		}
	}
	return out, nil
}

// Splits divides path into block-aligned input splits, one per block, the
// way Hadoop's FileInputFormat does. Record boundaries are reconciled by the
// record reader, not here.
func (fs *FileSystem) Splits(path string) ([]Split, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("dfs: %s: no such file", path)
	}
	splits := make([]Split, 0, len(f.blocks))
	off := int64(0)
	for _, b := range f.blocks {
		if len(b.data) == 0 && f.size > 0 {
			continue
		}
		splits = append(splits, Split{
			Path:      path,
			Offset:    off,
			Length:    int64(len(b.data)),
			Locations: append([]int(nil), b.replicas...),
		})
		off += int64(len(b.data))
	}
	return splits, nil
}
