package dfs

import (
	"sort"

	"yafim/internal/chaos"
	"yafim/internal/obs"
)

// SetChaos attaches a chaos plan whose BlockReadFailProb injects block-read
// failures into ReadRange (the read is retried from a remote replica and
// pays for the network hop). A nil plan disables injection.
func (fs *FileSystem) SetChaos(plan *chaos.Plan) {
	fs.mu.Lock()
	fs.plan = plan
	fs.mu.Unlock()
}

// chaosPlan fetches the attached plan under the lock, mirroring recorder().
func (fs *FileSystem) chaosPlan() *chaos.Plan {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.plan
}

// KillNode simulates the permanent loss of one data node: every replica it
// held disappears and the node receives no further placements. When
// rereplicate is true the name node immediately restores the replication
// factor of every under-replicated block by copying it to a healthy node
// (HDFS's re-replication on DataNode death), deterministically — files are
// repaired in sorted path order using the same round-robin cursor as initial
// placement. It returns the number of blocks that lost a replica and the
// bytes of block data re-replicated; the caller charges the corresponding
// network/disk time to its virtual timeline. Killing an unknown or already
// dead node is a no-op.
//
// Block data is never actually discarded even if a block drops to zero live
// replicas: the simulation must keep results exact. Replication factor 3
// makes that case unreachable for single-node crashes anyway.
func (fs *FileSystem) KillNode(node int, rereplicate bool) (lostBlocks int, reReplicatedBytes int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if node < 0 || node >= fs.nodes || fs.dead[node] {
		return 0, 0
	}
	fs.dead[node] = true

	// Deterministic repair order: map iteration is randomised, so walk the
	// namespace sorted by path.
	paths := make([]string, 0, len(fs.files))
	for p := range fs.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	repaired := int64(0)
	for _, p := range paths {
		f := fs.files[p]
		for i := range f.blocks {
			b := &f.blocks[i]
			kept := b.replicas[:0]
			lost := false
			for _, r := range b.replicas {
				if r == node {
					lost = true
					continue
				}
				kept = append(kept, r)
			}
			b.replicas = kept
			if !lost {
				continue
			}
			lostBlocks++
			if !rereplicate {
				continue
			}
			if t := fs.reReplicaTargetLocked(b.replicas); t >= 0 {
				b.replicas = append(b.replicas, t)
				repaired++
				reReplicatedBytes += int64(len(b.data))
			}
		}
	}
	if repaired > 0 {
		fs.rec.Add(obs.Counters{ReReplicatedBlocks: repaired, DFSWriteBytes: reReplicatedBytes})
	}
	return lostBlocks, reReplicatedBytes
}

// reReplicaTargetLocked picks the next healthy node that does not already
// hold a replica, advancing the shared round-robin cursor; -1 if no such
// node exists.
func (fs *FileSystem) reReplicaTargetLocked(existing []int) int {
	for tries := 0; tries < fs.nodes; tries++ {
		n := fs.nextNode
		fs.nextNode = (fs.nextNode + 1) % fs.nodes
		if fs.dead[n] || containsNode(existing, n) {
			continue
		}
		return n
	}
	return -1
}

func containsNode(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
