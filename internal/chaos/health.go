package chaos

import (
	"time"

	"yafim/internal/exec"
)

// NodeHealth counts task failures per node and blacklists nodes that fail
// too often, with exponentially growing blacklist windows — the scheduler
// consults Excluded before placing a stage. All times are virtual. A nil
// *NodeHealth is inert: every method is a no-op and nothing is ever
// excluded.
type NodeHealth struct {
	res     Resilience
	strikes []int           // total failures attributed to each node
	until   []time.Duration // blacklisted while virtual now < until[node]
	dead    []bool          // permanently lost (crashed) nodes
}

// NewNodeHealth tracks the given number of nodes under the given mitigation
// configuration.
func NewNodeHealth(nodes int, res Resilience) *NodeHealth {
	return &NodeHealth{
		res:     res,
		strikes: make([]int, nodes),
		until:   make([]time.Duration, nodes),
		dead:    make([]bool, nodes),
	}
}

// RecordFailure attributes one task failure to node at the given virtual
// time and reports whether that strike pushed the node into a (new or
// extended) blacklist window. The first window lasts BlacklistBase; each
// further strike doubles the window (the shared exec.Backoff arithmetic,
// capped against overflow).
func (h *NodeHealth) RecordFailure(node int, now time.Duration) bool {
	if h == nil || node < 0 || node >= len(h.strikes) || h.res.BlacklistAfter <= 0 {
		return false
	}
	h.strikes[node]++
	over := h.strikes[node] - h.res.BlacklistAfter
	if over < 0 {
		return false
	}
	h.until[node] = now + exec.Backoff{Base: h.res.BlacklistBase}.Delay(over)
	return true
}

// MarkDead permanently excludes a crashed node.
func (h *NodeHealth) MarkDead(node int) {
	if h == nil || node < 0 || node >= len(h.dead) {
		return
	}
	h.dead[node] = true
}

// Excluded returns the per-node exclusion mask at the given virtual time, or
// nil when no node is excluded. If exclusion would leave no schedulable
// node, blacklists are ignored (dead nodes stay dead) — a cluster must not
// deadlock itself.
func (h *NodeHealth) Excluded(now time.Duration) []bool {
	if h == nil {
		return nil
	}
	var out []bool
	alive, usable := 0, 0
	for i := range h.strikes {
		ex := h.dead[i] || now < h.until[i]
		if ex && out == nil {
			out = make([]bool, len(h.strikes))
		}
		if out != nil && ex {
			out[i] = true
		}
		if !h.dead[i] {
			alive++
			if now >= h.until[i] {
				usable++
			}
		}
	}
	if out == nil {
		return nil
	}
	if usable == 0 {
		if alive == len(h.dead) {
			return nil // nothing dead, everything blacklisted: ignore blacklists
		}
		out = make([]bool, len(h.dead))
		copy(out, h.dead)
	}
	return out
}
