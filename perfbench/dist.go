package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"yafim"
)

// distWorkers is how many in-process workers serve the master.
const distWorkers = 2

// registerTimeout bounds how long set-up waits for the workers to register.
const registerTimeout = 10 * time.Second

// cluster is a master and its in-process workers over loopback.
type cluster struct {
	master *yafim.DistMaster
	reg    *yafim.MetricsRegistry
	cancel context.CancelFunc
	done   chan error // one value per worker, when it has returned
}

// startCluster starts a master the way `yafim -dist master` does — default
// tuning, the given LiveLog and a fresh MetricsRegistry — and two workers
// joining it over loopback. workerLog and rt may be nil; rt replaces the
// workers' HTTP transport. It returns once the master counts both workers
// live.
func startCluster(log, workerLog *yafim.LiveLog, rt http.RoundTripper) (*cluster, error) {
	t0 := time.Now()
	reg := yafim.NewMetricsRegistry()
	m, err := yafim.StartDistMaster(yafim.DistMasterOptions{Addr: "127.0.0.1:0",
		Tuning: yafim.DefaultDistTuning(), Log: log, Reg: reg})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &cluster{master: m, reg: reg, cancel: cancel, done: make(chan error, distWorkers)}
	opts := yafim.DistWorkerOptions{MasterURL: m.URL(), Log: workerLog, Transport: rt}
	for i := 0; i < distWorkers; i++ {
		go func() { c.done <- yafim.RunDistWorker(ctx, opts) }()
	}
	for m.LiveWorkers() < distWorkers {
		if time.Since(t0) > registerTimeout {
			err := fmt.Errorf("only %d of %d workers registered in %v", m.LiveWorkers(), distWorkers, registerTimeout)
			if cerr := c.close(); cerr != nil {
				err = fmt.Errorf("%w; closing: %v", err, cerr)
			}
			return nil, err
		}
		time.Sleep(20 * time.Microsecond)
	}
	return c, nil
}

// setUp makes the program ready to mine the way `yafim -dist master` does:
// load the input, whose statistics the CLI master reports before serving,
// then start the master and wait for both workers. It returns the cluster
// and the seconds the whole set-up took. The cluster start alone takes half
// a millisecond, too short to time steadily amid a shared machine's
// scheduling noise: its median moved by 30% between sets of ten runs.
func setUp(in *input) (*cluster, float64, error) {
	runtime.GC()
	t0 := time.Now()
	if _, err := yafim.LoadFile(in.w.name, in.path); err != nil {
		return nil, 0, err
	}
	c, err := startCluster(yafim.NewLiveLog(nil), nil, nil)
	if err != nil {
		return nil, 0, err
	}
	return c, time.Since(t0).Seconds(), nil
}

// close stops the workers, waits until each has returned, then closes the
// master.
func (c *cluster) close() error {
	c.cancel()
	var first error
	for i := 0; i < distWorkers; i++ {
		if err := <-c.done; err != nil && first == nil {
			first = fmt.Errorf("worker: %w", err)
		}
	}
	// The workers' requests go through http.DefaultTransport, which may
	// hold a connection dialed for a request that was canceled on the way
	// out. The master's graceful shutdown waits on such a connection until
	// its own deadline; closing it here lets the master close promptly.
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
	if err := c.master.Close(); err != nil && first == nil {
		first = fmt.Errorf("master: %w", err)
	}
	return first
}

// mine runs one distributed mine of the workload's input on c.
func (c *cluster) mine(in *input) (*yafim.Trace, error) {
	ctx, cancel := context.WithTimeout(context.Background(), mineTimeout)
	defer cancel()
	return yafim.MineDistributed(ctx, c.master, in.path, in.w.support, yafim.Options{})
}

// timedDist measures set-up alone setupReps times, then mines in a closed
// loop, each mine on a freshly set-up cluster: every mine starts with cold
// worker block caches, as a new `yafim -dist master` run does, and adds one
// more set-up sample.
func timedDist(in *input, budget time.Duration) (outcome, error) {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		c, d, err := setUp(in)
		if err != nil {
			return outcome{}, err
		}
		setups = append(setups, d)
		if err := c.close(); err != nil {
			return outcome{}, err
		}
	}
	var t tally
	start := time.Now()
	for t.attempted < minMines || time.Since(start) < budget {
		c, d, err := setUp(in)
		if err != nil {
			return outcome{}, err
		}
		setups = append(setups, d)
		t.mineOnce(in, func() (*yafim.Trace, error) { return c.mine(in) })
		if err := c.close(); err != nil {
			return outcome{}, err
		}
	}
	return t.outcome(setups), nil
}

// masterCounters are the master's MetricsRegistry counters the traced run
// reads, as deltas over the mine.
var masterCounters = []string{
	"dist_lease_grants_total",
	"dist_local_lease_grants_total",
	"dist_input_reads_total",
	"dist_input_cache_hits_total",
	"dist_input_cache_misses_total",
	"dist_task_failures_total",
	"dist_fetch_failures_total",
	"dist_lease_expiries_total",
	"dist_duplicate_completions_total",
}

func readCounters(reg *yafim.MetricsRegistry) map[string]float64 {
	out := make(map[string]float64, len(masterCounters))
	for _, name := range masterCounters {
		out[name] = reg.Counter(name, "").Value()
	}
	return out
}

// rpcPaths are the master protocol calls counted by dist.rpc_calls.
var rpcPaths = []string{"/dist/lease", "/dist/complete", "/dist/heartbeat"}

// tracedDist mines twice on plain clusters (a warm-up, then the untraced
// baseline) and once on a traced one — the master and both workers sharing
// one LiveLog, the workers' traffic through a counting transport — then
// reduces the event timeline, the wire counts and the master's counters, and
// replays the counting layers.
func tracedDist(in *input, sp *tracer) (outcome, error) {
	root := sp.Begin(0, "run")
	defer sp.End(root, nil)
	o := outcome{values: map[string]float64{}, notes: map[string]string{}}

	db, loads, err := loadDB(in, setupReps, sp, root)
	if err != nil {
		return o, err
	}
	if err := datasetLayer(in, loads, &o); err != nil {
		return o, err
	}

	// A warm-up mine first, as in tracedSim, then the untraced baseline.
	var plainS float64
	for _, name := range []string{"mine.warmup", "mine.untraced"} {
		id := sp.Begin(root, "setup")
		c, err := startCluster(yafim.NewLiveLog(nil), nil, nil)
		sp.End(id, nil)
		if err != nil {
			return o, err
		}
		runtime.GC()
		id = sp.Begin(root, name)
		plain, err := c.mine(in)
		plainS = sp.End(id, nil)
		o.tallyMine(in, plain, err)
		if err := c.close(); err != nil {
			return o, err
		}
	}

	log := yafim.NewLiveLog(nil)
	wire := newWireCounter(http.DefaultTransport)
	id := sp.Begin(root, "setup.traced")
	c, err := startCluster(log, log, wire)
	sp.End(id, nil)
	if err != nil {
		return o, err
	}
	regBefore, wireBefore, seen := readCounters(c.reg), wire.Snapshot(), len(log.Events())
	runtime.GC()
	id = sp.Begin(root, "mine.traced")
	tr, err := c.mine(in)
	mineS := sp.End(id, nil)
	events := log.Events()[seen:]
	regAfter, wireAfter := readCounters(c.reg), wire.Snapshot()
	if cerr := c.close(); cerr != nil {
		return o, cerr
	}
	o.tallyMine(in, tr, err)
	if o.failed > 0 {
		return o, nil
	}
	o.values["obs.trace_overhead_frac"] = mineS/plainS - 1

	reg := make(map[string]float64, len(regAfter))
	for name, v := range regAfter {
		reg[name] = v - regBefore[name]
	}
	distWire(wireDelta(wireBefore, wireAfter), reg, &o)
	tl, err := reduceTimeline(events)
	if err != nil {
		return o, err
	}
	distTimeline(tl, tr, mineS, reg, &o)
	if err := replayLevels(in, db, true, sp, root, &o); err != nil {
		return o, err
	}
	return o, nil
}

// distWire reports the shuffle and protocol traffic the workers' transport
// saw during the mine.
func distWire(w map[string]wireStat, reg map[string]float64, o *outcome) {
	out := w["/dist/output"]
	o.values["dist.shuffle_bytes"] = float64(out.RespBytes)
	o.values["dist.shuffle_fetches"] = float64(out.Calls)
	o.values["dist.shuffle_fetch_s"] = out.Seconds
	o.values["dist.cache_blob_bytes"] = float64(w["/dist/cache"].RespBytes)
	o.notes["dist.cache_blob_bytes"] = fmt.Sprintf("%d fetches", w["/dist/cache"].Calls)
	var rpcs int64
	for _, p := range rpcPaths {
		rpcs += w[p].Calls
	}
	o.values["dist.rpc_calls"] = float64(rpcs)
	leases := float64(w["/dist/lease"].Calls)
	grants := reg["dist_lease_grants_total"]
	o.values["dist.lease_grant_ratio"] = ratio(grants, leases)
	o.notes["dist.lease_grant_ratio"] = fmt.Sprintf("%.0f grants of %.0f lease calls", grants, leases)
}

// distTimeline reports task times, lease waits, locality, pass times and
// faults, cross-checking the timeline's grant counts against the master's
// counters.
func distTimeline(tl timeline, tr *yafim.Trace, mineS float64, reg map[string]float64, o *outcome) {
	o.values["dist.map_s"] = tl.MapS
	o.values["dist.reduce_s"] = tl.ReduceS
	o.values["dist.lease_wait_s"] = tl.LeaseWaitS
	o.values["dist.busy_frac"] = ratio(tl.MapS+tl.ReduceS, distWorkers*mineS)
	o.notes["dist.busy_frac"] = fmt.Sprintf("task time over %d workers x mine_s", distWorkers)
	o.values["dist.local_grant_ratio"] = ratio(float64(tl.LocalGrants), float64(tl.MapGrants))
	o.notes["dist.local_grant_ratio"] = fmt.Sprintf("%d local of %d map grants", tl.LocalGrants, tl.MapGrants)
	if float64(tl.MapGrants+tl.ReduceGrants) != reg["dist_lease_grants_total"] ||
		float64(tl.LocalGrants) != reg["dist_local_lease_grants_total"] {
		o.broken = fmt.Sprintf("timeline saw %d grants (%d local), the master counted %.0f (%.0f local)",
			tl.MapGrants+tl.ReduceGrants, tl.LocalGrants,
			reg["dist_lease_grants_total"], reg["dist_local_lease_grants_total"])
	}

	var rest float64
	for _, p := range tr.Passes[1:] {
		rest += p.Duration.Seconds()
	}
	pass1 := tr.Passes[0].Duration.Seconds()
	o.values["dist.pass1_s"] = pass1
	o.values["dist.pass_rest_s"] = rest
	o.notes["dist.pass_rest_s"] = fmt.Sprintf("%d passes", len(tr.Passes)-1)
	o.values["mrapriori.driver_s"] = mineS - pass1 - rest
	o.notes["mrapriori.driver_s"] = "mine_s minus the pass times"

	hits, misses := reg["dist_input_cache_hits_total"], reg["dist_input_cache_misses_total"]
	o.values["dist.input_reads"] = reg["dist_input_reads_total"]
	o.values["dist.input_cache_hit_ratio"] = ratio(hits, hits+misses)
	o.notes["dist.input_cache_hit_ratio"] = fmt.Sprintf("%.0f hits of %.0f lookups", hits, hits+misses)
	o.values["dist.task_failures"] = reg["dist_task_failures_total"]
	o.values["dist.fetch_failures"] = reg["dist_fetch_failures_total"]
	o.values["dist.lease_expiries"] = reg["dist_lease_expiries_total"]
	o.values["dist.duplicate_completions"] = reg["dist_duplicate_completions_total"]
}
