package dist

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"yafim/internal/chaos"
)

// ChaosTransport is a seeded network-fault http.RoundTripper: it drops,
// delays and duplicates requests, loses responses after delivery, and
// partitions specific links, all driven by a TransportPlan the way the sim
// engines are driven by a chaos.Plan. Wrapped around the worker's master
// client and map-output fetch client, it exercises every protocol edge —
// stale-seq drops, zombie completions, double-delivered completions, fetch
// budgets surfacing as FetchFailed — with real fault schedules instead of
// hand-written unit cases.
//
// Determinism is per decision, not per schedule: each fault is a pure
// chaos.Unit hash of (seed, fault kind, request path, per-link call number),
// so a given call sees the same verdict every run, but concurrent goroutines
// interleave calls differently and the observed fault *sequence* varies.
// The invariant the chaos tests assert is therefore the protocol's, not the
// transport's: whatever the schedule, the mined itemsets are byte-identical
// to the fault-free oracle, because every endpoint tolerates duplicated,
// delayed and lost delivery (see DESIGN §9 for the per-endpoint argument).
//
// Reordering needs no dedicated knob: delays are per-request, so two
// in-flight requests on one link routinely complete out of order, and a
// duplicate always lands after its original.
type ChaosTransport struct {
	plan  TransportPlan
	base  http.RoundTripper
	start time.Time

	mu    sync.Mutex
	calls map[string]int64 // per-(host, path) call counter feeding the hash
}

// TransportPlan is a complete network-fault schedule for one ChaosTransport.
// The zero value injects nothing.
type TransportPlan struct {
	// Seed drives every decision, like chaos.Plan.Seed.
	Seed int64
	// DropRequestProb is the probability a request vanishes before reaching
	// the server — the server never sees it (a lost packet on the way out).
	DropRequestProb float64
	// DropResponseProb is the probability a request is delivered and
	// processed but its response is lost — the dangerous half of
	// at-least-once delivery: the caller retries an operation the server
	// already performed.
	DropResponseProb float64
	// DuplicateProb is the probability a request is delivered twice (the
	// duplicate first, its response discarded), exercising idempotency even
	// when the caller never retries.
	DuplicateProb float64
	// DelayProb and MaxDelay inject latency: with DelayProb, a request is
	// held for a hash-chosen duration in (0, MaxDelay] before delivery.
	DelayProb float64
	MaxDelay  time.Duration
	// Partitions cuts specific links for real-time windows.
	Partitions []LinkPartition
}

// LinkPartition makes every request whose target host:port or path contains
// Target fail during [From, Until) — measured in real time since the
// transport was created, the transport-layer analogue of chaos.NodeCrash's
// virtual crash time. A zero Until means "forever" (a partition that never
// heals; the fetch budget must surface it as FetchFailed).
type LinkPartition struct {
	Target string        `json:"target"`
	From   time.Duration `json:"from"`
	Until  time.Duration `json:"until"`
}

// Validate reports a descriptive error if the plan is unusable.
func (p *TransportPlan) Validate() error {
	for _, pr := range []struct {
		name string
		v    float64
	}{
		{"DropRequestProb", p.DropRequestProb},
		{"DropResponseProb", p.DropResponseProb},
		{"DuplicateProb", p.DuplicateProb},
		{"DelayProb", p.DelayProb},
	} {
		if pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("dist: transport plan: %s %g out of [0,1]", pr.name, pr.v)
		}
	}
	if p.MaxDelay < 0 {
		return fmt.Errorf("dist: transport plan: MaxDelay %v negative", p.MaxDelay)
	}
	if p.DelayProb > 0 && p.MaxDelay == 0 {
		return fmt.Errorf("dist: transport plan: DelayProb %g with zero MaxDelay", p.DelayProb)
	}
	for _, lp := range p.Partitions {
		if lp.Target == "" {
			return fmt.Errorf("dist: transport plan: partition with empty target")
		}
		if lp.Until != 0 && lp.Until <= lp.From {
			return fmt.Errorf("dist: transport plan: partition of %q heals at %v before it starts at %v",
				lp.Target, lp.Until, lp.From)
		}
	}
	return nil
}

// DefaultTransportPlan returns a moderate all-faults plan for smoke runs:
// 5% dropped requests, 3% lost responses, 5% duplicates and 10% delays up
// to 50ms, on every link. It schedules no partition — partitions need
// windows chosen against the run's expected duration.
func DefaultTransportPlan(seed int64) TransportPlan {
	return TransportPlan{
		Seed:             seed,
		DropRequestProb:  0.05,
		DropResponseProb: 0.03,
		DuplicateProb:    0.05,
		DelayProb:        0.10,
		MaxDelay:         50 * time.Millisecond,
	}
}

// FaultError is the error a ChaosTransport surfaces for an injected network
// fault; tests use the type to tell injected faults from genuine ones.
type FaultError struct {
	Kind   string // "partition", "drop_request", "drop_response"
	Target string
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("dist: chaos transport: %s on %s", e.Kind, e.Target)
}

// NewChaosTransport wraps base (nil means http.DefaultTransport) with the
// plan's fault schedule.
func NewChaosTransport(plan TransportPlan, base http.RoundTripper) (*ChaosTransport, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if base == nil {
		base = http.DefaultTransport
	}
	return &ChaosTransport{
		plan:  plan,
		base:  base,
		start: time.Now(),
		calls: map[string]int64{},
	}, nil
}

// RoundTrip implements http.RoundTripper with the plan's faults.
func (c *ChaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	target := req.URL.Host + req.URL.Path
	c.mu.Lock()
	n := c.calls[target]
	c.calls[target] = n + 1
	c.mu.Unlock()
	p := &c.plan
	unit := func(kind string) float64 { return chaos.Unit(p.Seed, kind+":"+target, n) }

	if cut := c.partitioned(target); cut != "" {
		return nil, &FaultError{Kind: "partition", Target: cut}
	}
	if p.DelayProb > 0 && unit("delay") < p.DelayProb {
		d := time.Duration(chaos.Unit(p.Seed, "delaylen:"+target, n) * float64(p.MaxDelay))
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-req.Context().Done():
			t.Stop()
			return nil, req.Context().Err()
		}
	}
	if p.DropRequestProb > 0 && unit("dropreq") < p.DropRequestProb {
		return nil, &FaultError{Kind: "drop_request", Target: target}
	}
	if p.DuplicateProb > 0 && unit("dup") < p.DuplicateProb {
		// Deliver a full copy first and discard its response: the server
		// processes the operation twice even though the caller sent it once.
		// Bodyless requests clone trivially; bodied ones need GetBody (set
		// for the byte-buffer bodies every client in this package sends).
		if dup := cloneRequest(req); dup != nil {
			if resp, err := c.base.RoundTrip(dup); err == nil {
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()              //nolint:errcheck
			}
		}
	}
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if p.DropResponseProb > 0 && unit("dropresp") < p.DropResponseProb {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()              //nolint:errcheck
		return nil, &FaultError{Kind: "drop_response", Target: target}
	}
	return resp, nil
}

// CloseIdleConnections forwards to the base transport, so a client built on
// a ChaosTransport can release its idle connections like any other.
func (c *ChaosTransport) CloseIdleConnections() {
	if ci, ok := c.base.(interface{ CloseIdleConnections() }); ok {
		ci.CloseIdleConnections()
	}
}

// partitioned reports the target of the partition currently cutting this
// link, or "" when the link is up.
func (c *ChaosTransport) partitioned(target string) string {
	if len(c.plan.Partitions) == 0 {
		return ""
	}
	now := time.Since(c.start)
	for _, lp := range c.plan.Partitions {
		if !strings.Contains(target, lp.Target) {
			continue
		}
		if now >= lp.From && (lp.Until == 0 || now < lp.Until) {
			return lp.Target
		}
	}
	return ""
}

// cloneRequest copies a request for duplicate delivery, nil when the body
// cannot be replayed.
func cloneRequest(req *http.Request) *http.Request {
	dup := req.Clone(req.Context())
	if req.Body == nil || req.Body == http.NoBody {
		return dup
	}
	if req.GetBody == nil {
		return nil
	}
	body, err := req.GetBody()
	if err != nil {
		return nil
	}
	dup.Body = body
	return dup
}
