package yafim

import (
	"context"
	"errors"
	"io"
	"net/http"

	"yafim/internal/dist"
	"yafim/internal/experiments"
	"yafim/internal/mrapriori"
	"yafim/internal/obs"
)

// Distributed runtime types, re-exported from the dist package. The
// in-memory simulation remains the repository's correctness oracle; the
// distributed runtime executes the same registered job closures across real
// OS processes with registration, heartbeats, task leases and crash
// reassignment. See DESIGN.md for the protocol.
type (
	// DistMaster is the driver-side master: it owns the lease table, the
	// liveness monitor and the job queue, and serves the worker protocol
	// plus live observability endpoints over HTTP.
	DistMaster = dist.Master
	// DistTuning sets the protocol timing knobs (heartbeat interval and
	// timeout, lease deadline, attempt budget, blacklist windows) and the
	// per-worker input block cache budget (InputCacheBytes; 0 means the
	// 256 MiB default, negative is rejected).
	DistTuning = dist.Tuning
	// DistWorkerOptions configures one worker process.
	DistWorkerOptions = dist.WorkerOptions
	// DistMasterOptions configures StartDistMaster, including the master's
	// write-ahead journal and crash-recovery resume.
	DistMasterOptions = dist.MasterOptions
	// DistTransportPlan is a seeded network-fault schedule for a
	// DistChaosTransport: drop, delay and duplicate probabilities plus
	// link-partition windows, all deterministic in the seed.
	DistTransportPlan = dist.TransportPlan
	// DistLinkPartition cuts links matching a target substring for a
	// real-time window of a DistTransportPlan.
	DistLinkPartition = dist.LinkPartition
	// DistChaosTransport is an http.RoundTripper injecting a
	// DistTransportPlan's faults; plug it into DistWorkerOptions.Transport.
	DistChaosTransport = dist.ChaosTransport
	// LiveLog is a bounded in-memory journal of live runtime events
	// (registrations, leases, completions, deaths, recoveries), drainable
	// as JSONL while a run executes.
	LiveLog = obs.EventLog
	// LiveEvent is one LiveLog record.
	LiveEvent = obs.LiveEvent
	// MetricsRegistry is a live Prometheus-text metric registry.
	MetricsRegistry = obs.Registry
)

// DefaultDistTuning returns production-shaped protocol timing.
func DefaultDistTuning() DistTuning { return dist.DefaultTuning() }

// NewLiveLog creates a live event journal. mirror, when non-nil, receives
// every event as one JSON line the moment it is appended.
func NewLiveLog(mirror io.Writer) *LiveLog { return obs.NewEventLog(mirror) }

// NewMetricsRegistry creates an empty live metric registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewDistMaster starts a master serving the worker protocol on addr
// (host:port, port 0 for ephemeral). log and reg may be nil. Journal-less
// convenience wrapper around StartDistMaster.
func NewDistMaster(addr string, t DistTuning, log *LiveLog, reg *MetricsRegistry) (*DistMaster, error) {
	return StartDistMaster(DistMasterOptions{Addr: addr, Tuning: t, Log: log, Reg: reg})
}

// StartDistMaster starts a master with the full option surface: set
// JournalPath to write-ahead journal every lease-table transition, and
// Resume to rebuild the table from that journal after a master crash —
// surviving workers reconnect and re-advertise their map outputs, finished
// passes return memoized, and the interrupted pass resumes where the journal
// left it. Invalid options surface as *InputError.
func StartDistMaster(opts DistMasterOptions) (*DistMaster, error) {
	m, err := dist.StartMaster(opts)
	if err != nil {
		var ie *dist.InputError
		if errors.As(err, &ie) {
			return nil, &InputError{Field: ie.Field, Reason: ie.Reason}
		}
		return nil, err
	}
	return m, nil
}

// DefaultDistTransportPlan returns a moderate seeded all-faults plan (drops,
// lost responses, duplicates, delays on every link) for chaos smoke runs.
func DefaultDistTransportPlan(seed int64) DistTransportPlan {
	return dist.DefaultTransportPlan(seed)
}

// NewDistChaosTransport wraps base (nil means http.DefaultTransport) with
// the plan's seeded fault schedule. The mined result under any plan must be
// byte-identical to a fault-free run — the worker protocol is idempotent
// under duplicated, delayed and lost delivery; this transport is how that
// claim is exercised.
func NewDistChaosTransport(plan DistTransportPlan, base http.RoundTripper) (*DistChaosTransport, error) {
	return dist.NewChaosTransport(plan, base)
}

// RunDistWorker runs a worker against the master until ctx is canceled,
// then drains gracefully: the in-flight task is finished and reported
// before the worker exits.
func RunDistWorker(ctx context.Context, opts DistWorkerOptions) error {
	return dist.RunWorker(ctx, opts)
}

// MineDistributed mines the transaction file at inputPath through the
// distributed master: every pass of the k-phase MapReduce Apriori runs as
// real map and reduce tasks leased to worker processes. Options.Engine is
// ignored (the distributed runtime executes the MapReduce comparator);
// MaxK and Tasks apply as in MineContext. The result is byte-identical to
// the in-memory sim oracle's on the same dataset and support.
func MineDistributed(ctx context.Context, m *DistMaster, inputPath string,
	minSupport float64, opts Options) (*Trace, error) {
	return mrapriori.Mine(ctx, m, inputPath, mrapriori.Config{
		MinSupport:  minSupport,
		MaxK:        opts.MaxK,
		NumMapTasks: opts.Tasks,
	}, nil)
}

// GenDataset generates one of the paper's benchmark datasets ("MushRoom",
// "T10I4D100K", "Chess", "Pumsb_star", "MedicalCases") at the given scale
// (1.0 = paper size) with a deterministic seed. Handy for smoke-testing the
// distributed runtime without shipping fixture files.
func GenDataset(name string, scale float64, seed int64) (*DB, error) {
	bm, err := experiments.FindBenchmark(name)
	if err != nil {
		return nil, err
	}
	return bm.Gen(scale, seed)
}
