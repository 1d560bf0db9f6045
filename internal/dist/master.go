package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"yafim/internal/obs"
)

// Master is the real runtime's driver-side endpoint: it owns the lease
// table, serves the worker protocol over HTTP, runs the liveness sweeper,
// and implements Executor so a driver can submit jobs to real worker
// processes exactly as it would to the simulator (Local).
type Master struct {
	cfg   Tuning
	table *leaseTable
	log   *obs.EventLog
	reg   *obs.Registry

	srv   *http.Server
	ln    net.Listener
	start time.Time

	stopOnce  sync.Once
	stopSweep chan struct{}
	sweepDone chan struct{}
}

// MasterOptions configures StartMaster. The zero value of every field is
// usable: listen on an ephemeral port, default tuning, no observability, no
// journal.
type MasterOptions struct {
	// Addr is the listen address ("host:port"; empty or ":0" picks a free
	// port).
	Addr string
	// Tuning parameterises the lease protocol; it is validated (typed
	// *InputError on nonsense) before zero fields select defaults.
	Tuning Tuning
	// Log and Reg are the optional observability surfaces.
	Log *obs.EventLog
	Reg *obs.Registry
	// JournalPath, when set, write-ahead journals every lease-table state
	// transition to this file (JSONL, fsync'd batches) so a crashed master
	// can be restarted with Resume.
	JournalPath string
	// Resume replays JournalPath before serving: the lease table is rebuilt
	// (workers dead pending re-registration, the in-flight job suspended
	// pending driver re-attachment, finished jobs memoized), a torn journal
	// tail is truncated away, and new records append to the same file.
	Resume bool
}

// StartMaster starts a master. See MasterOptions for the journal and
// crash-recovery knobs.
func StartMaster(opts MasterOptions) (*Master, error) {
	if err := opts.Tuning.Validate(); err != nil {
		return nil, err
	}
	cfg := opts.Tuning.withDefaults()
	table := newLeaseTable(cfg, opts.Log, opts.Reg)
	if opts.Resume {
		if opts.JournalPath == "" {
			return nil, &InputError{Field: "MasterOptions.JournalPath",
				Reason: "required when Resume is set"}
		}
		st, off, err := replayWAL(opts.JournalPath)
		if err != nil {
			return nil, err
		}
		// Drop the torn tail before appending: the next incarnation's
		// replay must never parse half a record from this one.
		if err := os.Truncate(opts.JournalPath, off); err != nil {
			return nil, fmt.Errorf("dist: resume: %w", err)
		}
		table.restore(st)
	}
	if opts.JournalPath != "" {
		w, err := openWAL(opts.JournalPath)
		if err != nil {
			return nil, err
		}
		table.wal = w
	}
	addr := opts.Addr
	if addr == "" {
		addr = ":0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		table.wal.close() //nolint:errcheck
		return nil, fmt.Errorf("dist: master listen: %w", err)
	}
	m := &Master{
		cfg:       cfg,
		table:     table,
		log:       opts.Log,
		reg:       opts.Reg,
		ln:        ln,
		start:     time.Now(),
		stopSweep: make(chan struct{}),
		sweepDone: make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/dist/register", m.handleRegister)
	mux.HandleFunc("/dist/heartbeat", m.handleHeartbeat)
	mux.HandleFunc("/dist/lease", m.handleLease)
	mux.HandleFunc("/dist/complete", m.handleComplete)
	mux.HandleFunc("/dist/cache", m.handleCache)
	mux.HandleFunc("/dist/events", m.handleEvents)
	mux.HandleFunc("/metrics", m.handleMetrics)
	// A lease request is held for up to one HeartbeatInterval, so the write
	// deadline allows that plus a HeartbeatTimeout of margin.
	m.srv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: cfg.HeartbeatTimeout,
		WriteTimeout:      cfg.HeartbeatInterval + cfg.HeartbeatTimeout,
	}
	go m.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	go m.sweeper()
	return m, nil
}

// Addr returns the master's listen address (for workers to dial).
func (m *Master) Addr() string { return m.ln.Addr().String() }

// URL returns the master's base URL.
func (m *Master) URL() string { return "http://" + m.Addr() }

// now is the master's monotonic clock, the real-time source every lease
// table call is fed from.
func (m *Master) now() time.Duration { return time.Since(m.start) }

// Close shuts the protocol server, the liveness sweeper and the journal
// down gracefully (the journal is flushed and fsync'd).
func (m *Master) Close() error {
	m.stopOnce.Do(func() { close(m.stopSweep) })
	<-m.sweepDone
	m.table.wal.close() //nolint:errcheck // best-effort on shutdown
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return m.srv.Shutdown(ctx)
}

// Abort kills the master the way SIGKILL would, for crash-recovery tests:
// journal records buffered since the last fsync are dropped (not flushed),
// the listener and all connections slam shut, and nothing is drained. The
// process-internal goroutines are still reaped so tests stay leak-free —
// the externally observable state is exactly what a real kill leaves.
func (m *Master) Abort() {
	m.table.wal.abort()
	m.stopOnce.Do(func() { close(m.stopSweep) })
	<-m.sweepDone
	m.srv.Close() //nolint:errcheck
}

// LiveWorkers reports registered workers not declared dead.
func (m *Master) LiveWorkers() int { return m.table.liveWorkerCount() }

// sweeper drives the liveness monitor and lease-deadline clock.
func (m *Master) sweeper() {
	defer close(m.sweepDone)
	t := time.NewTicker(m.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-m.stopSweep:
			return
		case <-t.C:
			m.table.sweep(m.now())
		}
	}
}

// defaultTasks is the map and reduce task count of a job that leaves it
// zero: a real file has no block layout to cut one split per block from, and
// a single split would serialise the map stage however many workers joined.
const defaultTasks = 4

// ExecJob implements Executor: cut the input into splits, install the job
// in the lease table, and wait for workers to pull it to completion. A zero
// NumMaps or NumReducers runs defaultTasks tasks.
func (m *Master) ExecJob(ctx context.Context, job *JobSpec) (*JobOutput, error) {
	if _, err := lookupJobType(job.Type); err != nil {
		return nil, fmt.Errorf("dist: %s: %w", job.Name, err)
	}
	if out, ok := m.table.finishedJob(job.Name); ok {
		// The job completed before the last master restart; the resumed
		// deterministic driver re-requesting it gets the journaled result
		// back without re-execution.
		m.log.Append(obs.LiveEvent{Event: "job_memoized", Job: job.Name})
		return out, nil
	}
	spec := *job
	if spec.NumMaps <= 0 {
		spec.NumMaps = defaultTasks
	}
	if spec.NumReducers <= 0 {
		spec.NumReducers = defaultTasks
	}
	splits, err := splitFile(spec.InputPath, spec.NumMaps)
	if err != nil {
		return nil, fmt.Errorf("dist: %s: %w", job.Name, err)
	}
	started := time.Now()
	j, err := m.table.startJob(&spec, splits)
	if err != nil {
		return nil, err
	}
	select {
	case <-j.doneCh:
	case <-ctx.Done():
		m.table.failJob(j, fmt.Errorf("dist: %s: %w", job.Name, ctx.Err()))
		<-j.doneCh
	}
	out, err := m.table.result()
	if err != nil {
		return nil, err
	}
	out.Duration = time.Since(started)
	m.table.memoizeDone(job.Name, out)
	return out, nil
}

// failJob aborts a job that has not already finished (driver cancellation).
func (t *leaseTable) failJob(j *distJob, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if j.finished() {
		return
	}
	j.failure = err
	t.wal.append(walRecord{Rec: recJobFail, Job: j.spec.Name, Error: err.Error()}, true)
	close(j.doneCh)
	t.wakeLocked()
}

// decode parses a JSON request body, replying 400 on malformed input.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone is its problem
}

func (m *Master) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !decode(w, r, &req) {
		return
	}
	id, err := m.table.register(req.Addr, req.Outputs, m.now())
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	// Baseline, not delta: a rejoining incarnation's cumulative counters
	// were already folded into the metrics under its previous id.
	m.table.advertiseCache(id, req.Cached, req.Cache, true)
	reply(w, RegisterResponse{
		WorkerID:        id,
		HeartbeatMs:     m.cfg.HeartbeatInterval.Milliseconds(),
		InputCacheBytes: m.cfg.InputCacheBytes,
	})
}

func (m *Master) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decode(w, r, &req) {
		return
	}
	ok := m.table.heartbeat(req.WorkerID, m.now())
	if ok {
		m.table.advertiseCache(req.WorkerID, req.Cached, req.Cache, false)
	}
	reply(w, HeartbeatResponse{OK: ok, Rejoin: !ok})
}

// handleLease is a long poll: a request that finds nothing runnable is held
// until the lease table wakes it, and asks again. The hold ends with an
// empty answer after one HeartbeatInterval, so an idle worker still calls
// once per interval and time-driven changes (a locality deferral or a
// blacklist window running out) are seen within one. A closing master
// answers 503, which the worker treats as an unreachable master. The table
// lock is never held while waiting.
func (m *Master) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decode(w, r, &req) {
		return
	}
	bound := time.NewTimer(m.cfg.HeartbeatInterval)
	defer bound.Stop()
	for r.Context().Err() == nil {
		wake := m.table.changed()
		task, rejoin := m.table.lease(req.WorkerID, m.now())
		if task != nil || rejoin {
			reply(w, LeaseResponse{Task: task, Rejoin: rejoin})
			return
		}
		select {
		case <-wake:
		case <-bound.C:
			reply(w, LeaseResponse{})
			return
		case <-m.stopSweep:
			http.Error(w, "dist: master closing", http.StatusServiceUnavailable)
			return
		case <-r.Context().Done():
		}
	}
}

func (m *Master) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decode(w, r, &req) {
		return
	}
	// Ingest the piggybacked cache advertisement first: a map task that
	// just parsed a split must be preferred for it before the next pass's
	// leases are cut, not one heartbeat later. No-ops for unknown or dead
	// workers.
	m.table.advertiseCache(req.WorkerID, req.Cached, req.Cache, false)
	accepted, rejoin := m.table.complete(&req, m.now())
	reply(w, CompleteResponse{Accepted: accepted, Rejoin: rejoin})
}

// handleCache serves one distributed-cache blob of the current job.
func (m *Master) handleCache(w http.ResponseWriter, r *http.Request) {
	seq, err := strconv.Atoi(r.URL.Query().Get("seq"))
	if err != nil {
		http.Error(w, "bad seq", http.StatusBadRequest)
		return
	}
	name := r.URL.Query().Get("name")
	data, ok := m.table.cacheFile(seq, name)
	if !ok {
		http.Error(w, "no such cache file", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data) //nolint:errcheck
}

// handleEvents dumps the live event journal as JSONL.
func (m *Master) handleEvents(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	m.log.WriteTo(w) //nolint:errcheck
}

// handleMetrics exposes the master's counters in Prometheus text format.
func (m *Master) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	m.reg.WritePrometheus(w) //nolint:errcheck
}
