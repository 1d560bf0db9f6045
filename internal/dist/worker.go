package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"yafim/internal/exec"
	"yafim/internal/itemset"
	"yafim/internal/mapreduce"
	"yafim/internal/obs"
	"yafim/internal/sim"
)

// WorkerOptions configures one worker process.
type WorkerOptions struct {
	// MasterURL is the master's base URL ("http://host:port").
	MasterURL string
	// Addr is the worker's own listen address for serving map output
	// ("127.0.0.1:0" by default — loopback, OS-assigned port).
	Addr string
	// Log receives the worker's live event journal (nil disables).
	Log *obs.EventLog
	// Fetch shapes the map-output and RPC retry loop; zero fields default
	// to 100ms base, 2s cap, factor 2, 10% deterministic jitter.
	Fetch exec.Backoff
	// FetchRetries is the per-target retry budget (default 5) before a map
	// output is reported unfetchable.
	FetchRetries int
	// FetchBudget bounds one reduce task's whole map-output fetch fan-in in
	// wall-clock time (default 30s): a partitioned peer must surface as
	// FetchFailed within bounded time, never as an indefinitely retrying
	// reduce. Layered as a context deadline over the per-target backoff.
	FetchBudget time.Duration
	// Transport, when non-nil, replaces the HTTP transport under every
	// client call — master RPC and map-output fetches alike. This is the
	// ChaosTransport injection point.
	Transport http.RoundTripper
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.Addr == "" {
		o.Addr = "127.0.0.1:0"
	}
	if o.Fetch.Base <= 0 {
		o.Fetch = exec.Backoff{Base: 100 * time.Millisecond, Cap: 2 * time.Second, Jitter: 0.1}
	}
	if o.FetchRetries <= 0 {
		o.FetchRetries = 5
	}
	if o.FetchBudget <= 0 {
		o.FetchBudget = 30 * time.Second
	}
	return o
}

// outputKey identifies one map task's stored output.
type outputKey struct {
	seq, mapIndex int
}

// worker is one worker process's runtime state.
type worker struct {
	opts   WorkerOptions
	client *http.Client
	log    *obs.EventLog
	blocks *blockCache // parsed input blocks, budget set by the master

	addr string // own map-output serving address

	mu      sync.Mutex
	id      int                     // current registration; changes on rejoin (see reregister)
	hbMs    int64                   // master-assigned heartbeat cadence
	outputs map[outputKey][][]byte  // completed map outputs by task: one run frame per reduce partition
	jobs    map[int]mapreduce.Tasks // built jobs by seq; register replaces the map
}

// workerID returns the current registration's id. Re-registration (after a
// master restart or a declared death) assigns a fresh one, and the
// heartbeat and lease loops can both trigger it, so reads go through the
// lock.
func (w *worker) workerID() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// clientTimeout bounds each of the worker's HTTP calls; headerTimeout bounds
// how long its output server waits for a request's header.
const (
	clientTimeout = 30 * time.Second
	headerTimeout = 10 * time.Second
)

// RunWorker runs a worker until ctx is done: register with the master,
// heartbeat on the master's cadence, pull task leases, execute them with
// the registered job-type closures, serve map output to peers over HTTP.
// Cancellation (SIGTERM in cmd/yafim) drains gracefully: the in-flight task
// finishes and is reported before the worker exits.
func RunWorker(ctx context.Context, opts WorkerOptions) error {
	opts = opts.withDefaults()
	w := &worker{
		opts:    opts,
		client:  &http.Client{Timeout: clientTimeout, Transport: opts.Transport},
		log:     opts.Log,
		blocks:  newBlockCache(DefaultTuning().InputCacheBytes),
		outputs: map[outputKey][][]byte{},
		jobs:    map[int]mapreduce.Tasks{},
	}

	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return fmt.Errorf("dist: worker listen: %w", err)
	}
	w.addr = ln.Addr().String()
	mux := http.NewServeMux()
	mux.HandleFunc("/dist/output", w.handleOutput)
	mux.HandleFunc("/dist/events", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/x-ndjson")
		w.log.WriteTo(rw) //nolint:errcheck
	})
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: headerTimeout}
	go srv.Serve(ln) //nolint:errcheck
	defer func() {
		// Shutdown waits for every open connection, including one a
		// transport dialed to this server and never used. Closing the
		// client's idle connections first closes those that share its
		// transport (every in-process worker shares the default one).
		w.client.CloseIdleConnections()
		sctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		srv.Shutdown(sctx) //nolint:errcheck
	}()

	// The worker may start before the master, or while it is restarting
	// after a crash: keep trying to register until the context is canceled.
	// A master that is reachable and refuses (capacity exhausted) is fatal.
	for {
		err := w.register(ctx)
		if err == nil {
			break
		}
		if exec.IsCancellation(err) {
			return nil
		}
		var se *statusError
		if errors.As(err, &se) {
			return err
		}
		if err := w.opts.Fetch.Sleep(ctx, 3); err != nil {
			return nil
		}
	}
	w.log.Append(obs.LiveEvent{Event: "worker_start", Worker: w.workerID(), Addr: w.addr})

	hbCtx, stopHb := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		w.heartbeatLoop(hbCtx)
	}()
	defer func() {
		stopHb()
		<-hbDone
	}()

	return w.leaseLoop(ctx)
}

// statusError is a non-200 master reply: the master was reachable and said
// no, as opposed to a transport failure worth retrying forever.
type statusError struct {
	path   string
	status string
	msg    string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("dist: %s: %s: %s", e.path, e.status, e.msg)
}

// postJSON posts req and decodes the response into resp, retrying transport
// errors on the worker's backoff (a master briefly unreachable during
// startup must not kill the worker).
func (w *worker) postJSON(ctx context.Context, path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	err = exec.Retry(ctx, w.opts.Fetch, w.opts.FetchRetries, func() error {
		hr, err := http.NewRequestWithContext(ctx, http.MethodPost,
			w.opts.MasterURL+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		hr.Header.Set("Content-Type", "application/json")
		res, err := w.client.Do(hr)
		if err != nil {
			return err
		}
		if res.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(res.Body, 512))
			res.Body.Close()
			return &statusError{path: path, status: res.Status,
				msg: string(bytes.TrimSpace(msg))}
		}
		err = json.NewDecoder(res.Body).Decode(resp)
		res.Body.Close()
		return err
	})
	if err == nil || exec.IsCancellation(err) {
		return err
	}
	return fmt.Errorf("dist: %s: retries exhausted: %w", path, err)
}

// register announces the worker and adopts the master's heartbeat cadence
// and input-block-cache budget, re-advertising every map output it still
// serves and every input block it still caches: a worker that outlives a
// master restart (or its own declared death) hands the new master back the
// partitions it would otherwise recompute and the placement hints it would
// otherwise relearn one heartbeat later.
//
// The built jobs are dropped instead. A master restarted without its
// journal numbers its jobs from 1 again, so a job kept under its seq could
// be another master's, with another candidate file.
func (w *worker) register(ctx context.Context) error {
	cached, stats := w.blocks.report()
	req := RegisterRequest{Addr: w.addr, Outputs: w.outputAds(),
		Cached: cached, Cache: stats}
	var resp RegisterResponse
	if err := w.postJSON(ctx, "/dist/register", req, &resp); err != nil {
		return err
	}
	hbMs := resp.HeartbeatMs
	if hbMs <= 0 {
		hbMs = DefaultTuning().HeartbeatInterval.Milliseconds()
	}
	if resp.InputCacheBytes > 0 {
		w.blocks.setBudget(resp.InputCacheBytes)
	}
	w.mu.Lock()
	w.id = resp.WorkerID
	w.hbMs = hbMs
	w.jobs = map[int]mapreduce.Tasks{}
	w.mu.Unlock()
	return nil
}

// outputAds lists the map outputs this worker serves, in deterministic
// order, for (re-)registration.
func (w *worker) outputAds() []OutputAd {
	w.mu.Lock()
	defer w.mu.Unlock()
	ads := make([]OutputAd, 0, len(w.outputs))
	for k := range w.outputs {
		ads = append(ads, OutputAd{Seq: k.seq, Map: k.mapIndex})
	}
	sort.Slice(ads, func(i, j int) bool {
		if ads[i].Seq != ads[j].Seq {
			return ads[i].Seq < ads[j].Seq
		}
		return ads[i].Map < ads[j].Map
	})
	return ads
}

// reregister re-runs registration after the master answered Rejoin to the
// id seenID. The heartbeat loop, the lease loop and a completion report can
// all notice a master restart near-simultaneously; the generation check
// collapses their Rejoin signals into one re-registration instead of
// burning three worker ids.
func (w *worker) reregister(ctx context.Context, seenID int) error {
	if w.workerID() != seenID {
		return nil // another loop already re-registered
	}
	if err := w.register(ctx); err != nil {
		return err
	}
	w.log.Append(obs.LiveEvent{Event: "worker_rejoin", Worker: w.workerID(), Addr: w.addr})
	return nil
}

// heartbeatLoop beats on the master's cadence until canceled, re-registering
// when the master stops recognising the worker. An unreachable master is
// not fatal here: the loop keeps beating, and the Rejoin it receives once
// the master is back (restarted masters know nobody) repairs registration.
func (w *worker) heartbeatLoop(ctx context.Context) {
	w.mu.Lock()
	hbMs := w.hbMs
	w.mu.Unlock()
	t := time.NewTicker(time.Duration(hbMs) * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			id := w.workerID()
			cached, stats := w.blocks.report()
			var resp HeartbeatResponse
			err := w.postJSON(ctx, "/dist/heartbeat", HeartbeatRequest{WorkerID: id,
				Cached: cached, Cache: stats}, &resp)
			if err == nil && resp.Rejoin {
				w.reregister(ctx, id) //nolint:errcheck // retried next beat
			}
		}
	}
}

// leaseLoop pulls and executes tasks until the context is done. A task
// already running when cancellation arrives completes and is reported —
// the graceful SIGTERM drain. The master holds a lease request until a task
// is runnable or its hold bound passes, so an empty answer is followed by
// the next request at once.
//
// An unreachable master does not end the loop: the worker is the durable
// party during a master crash (it holds computed map outputs), so it keeps
// polling with backoff until the restarted master answers — with Rejoin,
// upon which the worker re-registers and re-advertises those outputs. Only
// cancellation or a master that refuses registration outright ends a worker.
func (w *worker) leaseLoop(ctx context.Context) error {
	for {
		if err := exec.ContextErr(ctx); err != nil {
			w.log.Append(obs.LiveEvent{Event: "worker_drain", Worker: w.workerID()})
			return nil // drained: cancellation is the normal exit
		}
		id := w.workerID()
		var resp LeaseResponse
		if err := w.postJSON(ctx, "/dist/lease", LeaseRequest{WorkerID: id}, &resp); err != nil {
			if exec.IsCancellation(err) {
				return nil
			}
			w.log.Append(obs.LiveEvent{Event: "master_unreachable", Worker: id,
				Detail: err.Error()})
			if err := w.opts.Fetch.Sleep(ctx, 3); err != nil {
				return nil
			}
			continue
		}
		if resp.Rejoin {
			if err := w.reregister(ctx, id); err != nil {
				if exec.IsCancellation(err) {
					return nil
				}
				var se *statusError
				if errors.As(err, &se) {
					return err // reachable master refused us: fatal
				}
			}
			continue
		}
		if resp.Task == nil {
			continue // the master already held the request for us
		}
		w.runTask(ctx, resp.Task)
	}
}

// runTask executes one leased task and reports its completion. Failures are
// reported, not returned: the master decides retry policy.
func (w *worker) runTask(ctx context.Context, task *TaskSpec) {
	w.dropStaleCaches(task.Seq)
	w.log.Append(obs.LiveEvent{Event: "task_start", Worker: w.workerID(), Job: task.Job,
		Seq: task.Seq, Phase: task.Phase, Task: task.Index + 1, Attempt: task.Attempt})
	req := &CompleteRequest{
		WorkerID: w.workerID(), Seq: task.Seq,
		Phase: task.Phase, Index: task.Index, Attempt: task.Attempt,
	}
	var err error
	switch task.Phase {
	case PhaseMap:
		req.InputRecords, err = w.runMap(ctx, task)
	case PhaseReduce:
		var failed []int
		req.Output, failed, err = w.runReduce(ctx, task)
		req.FailedMaps = failed
	default:
		err = fmt.Errorf("dist: unknown phase %q", task.Phase)
	}
	req.OK = err == nil
	if err != nil {
		req.Error = err.Error()
		w.log.Append(obs.LiveEvent{Event: "task_error", Worker: req.WorkerID, Job: task.Job,
			Seq: task.Seq, Phase: task.Phase, Task: task.Index + 1,
			Attempt: task.Attempt, Detail: err.Error()})
	}
	// Piggyback the block-cache inventory taken AFTER the task ran: a map
	// task that just parsed its split advertises it on this very report,
	// so the master prefers this worker for the split on the next pass.
	req.Cached, req.Cache = w.blocks.report()
	var resp CompleteResponse
	// Completion reporting uses a context that survives the drain: a result
	// computed before SIGTERM still reaches the master.
	rctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 20*time.Second)
	defer cancel()
	for try := 0; try < 2; try++ {
		req.WorkerID = w.workerID()
		if err := w.postJSON(rctx, "/dist/complete", req, &resp); err != nil {
			w.log.Append(obs.LiveEvent{Event: "complete_lost", Worker: req.WorkerID,
				Job: task.Job, Seq: task.Seq, Phase: task.Phase,
				Task: task.Index + 1, Detail: err.Error()})
			return
		}
		if !resp.Rejoin {
			break
		}
		// The master no longer knows this id: it restarted, or declared the
		// worker dead while the task ran. Re-register (re-advertising the
		// outputs still served here) and resend once under the fresh id —
		// idempotent on the master, where the first valid result wins.
		if err := w.reregister(rctx, req.WorkerID); err != nil {
			w.log.Append(obs.LiveEvent{Event: "complete_lost", Worker: req.WorkerID,
				Job: task.Job, Seq: task.Seq, Phase: task.Phase,
				Task: task.Index + 1, Detail: err.Error()})
			return
		}
	}
	w.log.Append(obs.LiveEvent{Event: "task_reported", Worker: req.WorkerID, Job: task.Job,
		Seq: task.Seq, Phase: task.Phase, Task: task.Index + 1, Attempt: task.Attempt})
}

// dropStaleCaches drops the built jobs and the map outputs of jobs older
// than seq. Seqs increase monotonically and one job runs at a time, so a
// task from a newer job proves every older job's trees and partitions are
// dead weight (a resumed master rebinds only the current job's outputs);
// without this a long-lived worker leaked every finished job's candidate
// files and map outputs.
func (w *worker) dropStaleCaches(seq int) {
	w.mu.Lock()
	for s := range w.jobs {
		if s < seq {
			delete(w.jobs, s)
		}
	}
	for k := range w.outputs {
		if k.seq < seq {
			delete(w.outputs, k)
		}
	}
	w.mu.Unlock()
}

// job returns the built tasks of the task's job, building the job at its
// first task on this worker: fetch each cache blob from the master, then
// build through the registry. Only the built tasks are kept, not the blobs.
func (w *worker) job(ctx context.Context, task *TaskSpec) (mapreduce.Tasks, error) {
	w.mu.Lock()
	jobs := w.jobs // a registration while this builds replaces the map: the build is not kept
	tasks, ok := jobs[task.Seq]
	w.mu.Unlock()
	if ok {
		return tasks, nil
	}
	cache := make(mapreduce.CacheFiles, len(task.CacheNames))
	for _, name := range task.CacheNames {
		u := fmt.Sprintf("%s/dist/cache?seq=%d&name=%s", w.opts.MasterURL, task.Seq, name)
		data, err := w.fetchURL(ctx, u)
		if err != nil {
			return mapreduce.Tasks{}, fmt.Errorf("cache %s: %w", name, err)
		}
		cache[name] = data
	}
	tasks, err := buildJob(task.Type, task.Params, cache)
	if err != nil {
		return mapreduce.Tasks{}, fmt.Errorf("dist: %s: %w", task.Job, err)
	}
	w.mu.Lock()
	jobs[task.Seq] = tasks
	w.mu.Unlock()
	return tasks, nil
}

// fetchURL GETs a URL with the worker's retry backoff.
func (w *worker) fetchURL(ctx context.Context, url string) ([]byte, error) {
	var data []byte
	err := exec.Retry(ctx, w.opts.Fetch, w.opts.FetchRetries, func() error {
		hr, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		res, err := w.client.Do(hr)
		if err != nil {
			return err
		}
		if res.StatusCode != http.StatusOK {
			res.Body.Close()
			return fmt.Errorf("%s: %s", url, res.Status)
		}
		data, err = io.ReadAll(res.Body)
		res.Body.Close()
		return err
	})
	if err != nil {
		if exec.IsCancellation(err) {
			return nil, err
		}
		return nil, fmt.Errorf("dist: fetch retries exhausted: %w", err)
	}
	return data, nil
}

// runMap executes one map task through the sim's own map-task body:
// read the split from the block cache, map, partition and combine, and
// store each run's frame for serving. Returns the consumed record count (the
// driver's counter source).
func (w *worker) runMap(ctx context.Context, task *TaskSpec) (int64, error) {
	tasks, err := w.job(ctx, task)
	if err != nil {
		return 0, err
	}
	var combiner mapreduce.Reducer
	if tasks.NewCombiner != nil {
		combiner = tasks.NewCombiner()
	}
	// The block cache is the fix for the paper's central Hadoop complaint:
	// the first pass reads and parses the split, every later pass of the
	// k-pass mining job maps the parsed rows from memory.
	read := func() ([]itemset.Itemset, int64, error) { return w.blocks.get(task.Split) }
	// Real runtime: costs are measured, not metered.
	out, err := mapreduce.MapTask(task.Index, tasks.NewMapper(), combiner, read,
		task.NumReducers, new(sim.Ledger))
	if err != nil {
		return 0, err
	}
	frames := make([][]byte, len(out.Runs))
	for p, run := range out.Runs {
		frames[p] = mapreduce.AppendRun(nil, run)
	}
	w.mu.Lock()
	w.outputs[outputKey{task.Seq, task.Index}] = frames
	w.mu.Unlock()
	return out.InputRecords, nil
}

// runReduce executes one reduce task through the sim's own reduce-task
// body: fetch this partition's run from every map task's producer with
// capped-backoff retries, in map-index order, then merge the runs, reduce
// the keys in order and return the output records.
// Unfetchable map outputs are returned as FailedMaps for the master's
// FetchFailed recovery; the reduce itself then fails this attempt.
func (w *worker) runReduce(ctx context.Context, task *TaskSpec) ([]KV, []int, error) {
	tasks, err := w.job(ctx, task)
	if err != nil {
		return nil, nil, err
	}
	rt := mapreduce.NewReduceTask(task.Index, tasks.NewReducer(), new(sim.Ledger))
	// The whole fetch fan-in runs under one wall-clock budget, layered over
	// the per-target backoff: a partitioned peer (reachable to TCP but never
	// answering, or a link the chaos transport cut indefinitely) must
	// surface as FetchFailed in bounded time, not as a reduce that retries
	// forever. Budget expiry is distinguished from a genuine drain by the
	// outer context: if ctx itself is live, the deadline was ours.
	fctx, cancelFetch := context.WithTimeout(ctx, w.opts.FetchBudget)
	defer cancelFetch()
	var failed []int
	for mi, addr := range task.MapAddrs {
		u := fmt.Sprintf("http://%s/dist/output?seq=%d&map=%d&part=%d",
			addr, task.Seq, mi, task.Index)
		data, err := w.fetchURL(fctx, u)
		if err != nil {
			if exec.ContextErr(ctx) != nil {
				return nil, nil, err // worker draining, not a fetch verdict
			}
			if fctx.Err() != nil {
				// Budget spent. Report the map that starved as unfetchable
				// and fail the attempt; maps not yet tried are left alone
				// (they may be perfectly healthy) for the retried attempt.
				failed = append(failed, mi)
				w.log.Append(obs.LiveEvent{Event: "fetch_budget_exhausted",
					Worker: w.workerID(), Job: task.Job, Seq: task.Seq,
					Phase: PhaseReduce, Task: task.Index + 1,
					Detail: fmt.Sprintf("budget %v spent at map %d of %d (%s)",
						w.opts.FetchBudget, mi, len(task.MapAddrs), addr)})
				break
			}
			w.log.Append(obs.LiveEvent{Event: "fetch_failed", Worker: w.workerID(),
				Job: task.Job, Seq: task.Seq, Phase: PhaseReduce,
				Task: task.Index + 1, Detail: fmt.Sprintf("map %d at %s: %v", mi, addr, err)})
			failed = append(failed, mi)
			continue
		}
		run, err := mapreduce.ParseRun(data)
		if err != nil {
			w.log.Append(obs.LiveEvent{Event: "fetch_failed", Worker: w.workerID(),
				Job: task.Job, Seq: task.Seq, Phase: PhaseReduce,
				Task: task.Index + 1, Detail: fmt.Sprintf("map %d at %s: decode: %v", mi, addr, err)})
			failed = append(failed, mi)
			continue
		}
		rt.Merge(run)
	}
	if len(failed) > 0 {
		return nil, failed, fmt.Errorf("dist: reduce %d: %d map outputs unfetchable", task.Index, len(failed))
	}
	var out []KV
	emit := func(k, v string) { out = append(out, KV{Key: k, Value: v}) }
	if _, err := rt.Reduce(emit); err != nil {
		return nil, nil, err
	}
	return out, nil, nil
}

// handleOutput serves one stored run frame. The Content-Length lets the
// fetching reducer tell a body cut short from a whole one.
func (w *worker) handleOutput(rw http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	seq, err1 := strconv.Atoi(q.Get("seq"))
	mi, err2 := strconv.Atoi(q.Get("map"))
	part, err3 := strconv.Atoi(q.Get("part"))
	if err1 != nil || err2 != nil || err3 != nil {
		http.Error(rw, "bad query", http.StatusBadRequest)
		return
	}
	w.mu.Lock()
	frames, ok := w.outputs[outputKey{seq, mi}]
	w.mu.Unlock()
	if !ok || part < 0 || part >= len(frames) {
		http.Error(rw, "no such partition", http.StatusNotFound)
		return
	}
	rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
	rw.Header().Set("Content-Length", strconv.Itoa(len(frames[part])))
	rw.Write(frames[part]) //nolint:errcheck
}
