// Command yafim mines frequent itemsets from a transaction file with any of
// the repository's engines and optionally derives association rules.
//
// Usage:
//
//	yafim -input retail.dat -support 0.01 [-engine yafim] [-rules 0.8]
//	yafim -input retail.dat -trace out.json -stats
//
// The parallel engines (yafim, mapreduce, son, rddeclat) run on the paper's
// simulated 12-node cluster and report per-pass virtual cluster time; the
// sequential engines (sequential, eclat, fpgrowth) report real elapsed time.
//
// Observability flags (parallel engines): -trace writes a Chrome trace-event
// JSON of the run's virtual timeline (load it in Perfetto or
// chrome://tracing), -stats prints a Spark-Web-UI-style per-stage skew table
// plus the counter totals, and -json emits a machine-readable run summary.
// -diag prints the critical-path and skew diagnosis (straggler attribution,
// per-stage Gini, hot partitions), -journal writes a JSONL event journal of
// the virtual timeline, and -listen serves the live run over HTTP: Prometheus
// text at /metrics, the diagnosis at /diag and /diag.json, the journal at
// /journal, and net/http/pprof under /debug/pprof/.
//
// Distributed mode (-dist) swaps the in-process simulation for the real
// multi-process MapReduce runtime of internal/dist:
//
//	yafim -dist master -dist-addr :7077 -input retail.dat -support 0.01
//	yafim -dist worker -dist-master http://host:7077          # on each worker
//	yafim -dist smoke                                          # self-contained demo
//
// A master serves the worker protocol (registration, heartbeats, task
// leases) plus live observability (/metrics, /dist/events) on -dist-addr,
// waits for -dist-workers workers, then runs every mining pass as real map
// and reduce tasks leased to the worker processes; -journal mirrors the live
// protocol journal to a file as it happens. With -dist-wal the master
// write-ahead journals its lease table, and -dist-resume rebuilds it from
// that journal after a crash — surviving workers reconnect on their own (see
// README "Surviving a master restart"). A worker joins the given master and
// drains gracefully on SIGTERM; -dist-chaos seeds a network-fault transport
// (drops, delays, duplicates) under every call the worker makes. Each worker
// keeps its input splits, parsed into transactions, in an in-memory block
// cache (-dist-cache-bytes budgets it, delivered from the master at
// registration) so the k-pass mining job reads and parses the input once per
// worker, not once per pass; the master's /metrics exports the cache counters
// (dist_input_reads_total, dist_input_cache_{hits,misses,evictions}_total,
// dist_input_cache_bytes). Smoke mode forks its own workers, SIGKILLs one
// mid-run (disable with -dist-kill=false), verifies the surviving run's
// itemsets are byte-identical to the in-memory sim oracle, and asserts the
// once-per-worker read invariant from those counters, dumping them to
// cache-metrics.prom next to the worker logs.
//
// Runs are interruptible: -timeout bounds the real (wall-clock) time of the
// mining run, and Ctrl-C (SIGINT) or SIGTERM cancels it at the next task
// boundary. Every exit path — success, cancellation, deadline, mining error
// — shuts the live HTTP surface down and flushes the telemetry recorded so
// far, so a partial timeline of an aborted run remains inspectable.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	osexec "os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"yafim"
)

func main() {
	// SIGINT/SIGTERM cancel the mining context; a second signal kills the
	// process immediately (NotifyContext restores default handling once the
	// context is done).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, yafim.ErrCanceled) {
			fmt.Fprintln(os.Stderr, "yafim: interrupted:", err)
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "yafim:", err)
		os.Exit(1)
	}
}

// cliFlags is the parsed command line, shared by the sim and dist modes.
type cliFlags struct {
	input    string
	support  float64
	engine   string
	mode     string
	maxK     int
	nodes    int
	ruleConf float64
	top      int
	quiet    bool
	traceOut string
	stats    bool
	chaosS   int64
	jsonOut  bool
	timeout  time.Duration
	listen   string
	journal  string
	diag     bool

	dist        string
	distAddr    string
	distMaster  string
	distWorkers int
	distKill    bool
	distLogs    string
	distWAL     string
	distResume  bool
	distChaos   int64
	distCacheB  int64

	supportSet bool
}

// run is the whole CLI behind a testable seam: flags come from args, output
// goes to the writers, and every resource it opens (listeners, journals,
// forked workers) is released on every return path.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("yafim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var f cliFlags
	fs.StringVar(&f.input, "input", "", "transaction file in .dat format (required)")
	fs.Float64Var(&f.support, "support", 0.01, "relative minimum support in (0,1]")
	fs.StringVar(&f.engine, "engine", "yafim", "engine: "+engineNames())
	fs.StringVar(&f.mode, "mode", "all", "itemsets to report: all, closed, maximal")
	fs.IntVar(&f.maxK, "maxk", 0, "stop after frequent itemsets of this size (0 = unbounded)")
	fs.IntVar(&f.nodes, "nodes", 0, "override simulated node count for parallel engines (0 = engine default, negative rejected)")
	fs.Float64Var(&f.ruleConf, "rules", 0, "if > 0, derive association rules at this confidence")
	fs.IntVar(&f.top, "top", 20, "itemsets/rules to print per section")
	fs.BoolVar(&f.quiet, "q", false, "print only summary lines")
	fs.StringVar(&f.traceOut, "trace", "", "write Chrome trace-event JSON of the virtual timeline to this file")
	fs.BoolVar(&f.stats, "stats", false, "print per-stage skew table and counter totals")
	fs.Int64Var(&f.chaosS, "chaos", 0, "if != 0, inject the seeded chaos fault plan into parallel engines")
	fs.BoolVar(&f.jsonOut, "json", false, "print a machine-readable JSON run summary instead of text")
	fs.DurationVar(&f.timeout, "timeout", 0, "abort the mining run after this much real time (0 = no limit)")
	fs.StringVar(&f.listen, "listen", "", "serve /metrics, /diag, /journal and /debug/pprof/ on this address while the run executes")
	fs.StringVar(&f.journal, "journal", "", "write a JSONL event journal (virtual timeline, or live protocol events under -dist) to this file")
	fs.BoolVar(&f.diag, "diag", false, "print the critical-path and skew diagnosis after the run")
	fs.StringVar(&f.dist, "dist", "", "distributed mode: master, worker, or smoke (default: in-process simulation)")
	fs.StringVar(&f.distAddr, "dist-addr", "127.0.0.1:7077", "master listen address for -dist master")
	fs.StringVar(&f.distMaster, "dist-master", "", "master base URL for -dist worker (http://host:port)")
	fs.IntVar(&f.distWorkers, "dist-workers", 2, "workers to wait for (-dist master) or to fork (-dist smoke)")
	fs.BoolVar(&f.distKill, "dist-kill", true, "SIGKILL one forked worker mid-run under -dist smoke")
	fs.StringVar(&f.distLogs, "dist-logs", "", "directory for worker logs and the master journal under -dist smoke (default: a temp dir)")
	fs.StringVar(&f.distWAL, "dist-wal", "", "write-ahead journal file for the master's lease table (-dist master/smoke); enables crash recovery")
	fs.BoolVar(&f.distResume, "dist-resume", false, "replay -dist-wal before serving (-dist master): resume a crashed master's state")
	fs.Int64Var(&f.distChaos, "dist-chaos", 0, "seed a network-fault transport (drops, delays, duplicates) into workers; 0 disables")
	fs.Int64Var(&f.distCacheB, "dist-cache-bytes", 0, "per-worker input block cache budget in bytes (-dist master/smoke; 0 = default 256 MiB, negative rejected)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	fs.Visit(func(fl *flag.Flag) {
		if fl.Name == "support" {
			f.supportSet = true
		}
	})

	switch f.dist {
	case "":
		return runSim(ctx, f, fs, stdout, stderr)
	case "worker":
		return runDistWorker(ctx, f, stderr)
	case "master":
		return runDistMaster(ctx, f, stdout, stderr)
	case "smoke":
		return runDistSmoke(ctx, f, stdout, stderr)
	default:
		return fmt.Errorf("unknown -dist mode %q (want master, worker or smoke)", f.dist)
	}
}

// engineNames lists the -engine values, comma-separated.
func engineNames() string {
	var names []string
	for _, e := range yafim.Engines() {
		names = append(names, e.String())
	}
	return strings.Join(names, ", ")
}

// runSim is the classic single-process path: every engine runs on the
// in-memory virtual-time cluster (or natively for the sequential engines).
func runSim(ctx context.Context, f cliFlags, fs *flag.FlagSet, stdout, stderr io.Writer) error {
	if f.input == "" {
		fs.Usage()
		return fmt.Errorf("-input is required")
	}
	if f.nodes < 0 {
		return fmt.Errorf("-nodes must not be negative, got %d", f.nodes)
	}
	eng, err := yafim.ParseEngine(f.engine)
	if err != nil {
		return err
	}
	db, err := yafim.LoadFile(filepath.Base(f.input), f.input)
	if err != nil {
		return err
	}
	st := db.ComputeStats()
	if !f.jsonOut {
		fmt.Fprintf(stdout, "%s: %d transactions, %d items, avg length %.1f\n",
			f.input, st.NumTransactions, st.NumItems, st.AvgLength)
	}

	opts := yafim.Options{Engine: eng, MaxK: f.maxK, Deadline: f.timeout}
	if f.traceOut != "" || f.stats || f.jsonOut || f.listen != "" || f.journal != "" || f.diag {
		opts.Recorder = yafim.NewRecorder()
	}
	if f.chaosS != 0 {
		opts.Chaos = yafim.DefaultChaosPlan(f.chaosS)
	}
	// The cluster the run uses and the diagnosis judges task durations
	// against: the engine's default, resized by -nodes. Sequential engines
	// have none.
	var diagCluster *yafim.Cluster
	if cfg, ok := eng.DefaultCluster(); ok {
		if f.nodes > 0 {
			cfg = cfg.WithNodes(f.nodes)
			opts.Cluster = &cfg
		}
		diagCluster = &cfg
	}
	if f.listen != "" {
		ln, err := net.Listen("tcp", f.listen)
		if err != nil {
			return fmt.Errorf("-listen: %w", err)
		}
		fmt.Fprintf(stderr, "yafim: serving diagnostics on http://%s/\n", ln.Addr())
		srv := &http.Server{Handler: yafim.ObsHandler(opts.Recorder, diagCluster)}
		served := make(chan struct{})
		go func() {
			defer close(served)
			srv.Serve(ln) //nolint:errcheck // ErrServerClosed on shutdown
		}()
		// Joined, not just closed: the serve goroutine must be gone before
		// run returns on any path, or an aborted run leaks it.
		defer func() {
			srv.Close() //nolint:errcheck
			<-served
		}()
	}

	trace, err := yafim.MineContext(ctx, db, f.support, opts)
	if err != nil {
		// Every abort — SIGINT, -timeout deadline, or a mining error —
		// still flushes the telemetry captured so far: the partial timeline
		// is exactly what explains where the run was when it died.
		flushPartial(f, opts.Recorder, diagCluster, stderr)
		return err
	}

	if f.traceOut != "" {
		if err := writeTrace(f.traceOut, opts.Recorder); err != nil {
			return err
		}
	}
	if f.journal != "" {
		if err := writeJournalFile(f.journal, opts.Recorder); err != nil {
			return err
		}
	}
	if f.jsonOut {
		if f.diag {
			if err := yafim.WriteDiagnosis(stderr, yafim.Diagnose(opts.Recorder, diagCluster)); err != nil {
				return err
			}
		}
		return writeJSONSummary(stdout, eng, f.support, trace, opts.Recorder)
	}

	fmt.Fprintf(stdout, "engine=%s support=%g%% frequent=%d maxk=%d time=%v\n",
		eng, f.support*100, trace.Result.NumFrequent(), trace.Result.MaxK(),
		trace.TotalDuration().Round(1e6))
	if f.stats {
		if err := yafim.WriteStageTable(stdout, opts.Recorder); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "counters:")
		if err := yafim.WriteCounters(stdout, opts.Recorder.Counters()); err != nil {
			return err
		}
	}
	if f.diag {
		if err := yafim.WriteDiagnosis(stdout, yafim.Diagnose(opts.Recorder, diagCluster)); err != nil {
			return err
		}
	}
	return report(stdout, f, trace, db)
}

// flushPartial writes whatever telemetry an aborted run accumulated: the
// Chrome trace and JSONL journal to their files, the stage table and
// diagnosis to stderr. Best-effort by design — the run's own error is what
// the caller returns; flush failures are only noted.
func flushPartial(f cliFlags, rec *yafim.Recorder, diagCluster *yafim.Cluster, stderr io.Writer) {
	if rec == nil {
		return
	}
	if f.traceOut != "" {
		if werr := writeTrace(f.traceOut, rec); werr != nil {
			fmt.Fprintln(stderr, "yafim: partial trace:", werr)
		} else {
			fmt.Fprintln(stderr, "yafim: partial trace written to", f.traceOut)
		}
	}
	if f.journal != "" {
		if werr := writeJournalFile(f.journal, rec); werr != nil {
			fmt.Fprintln(stderr, "yafim: partial journal:", werr)
		} else {
			fmt.Fprintln(stderr, "yafim: partial journal written to", f.journal)
		}
	}
	if f.stats {
		if werr := yafim.WriteStageTable(stderr, rec); werr != nil {
			fmt.Fprintln(stderr, "yafim: partial stage table:", werr)
		}
	}
	if f.diag {
		if werr := yafim.WriteDiagnosis(stderr, yafim.Diagnose(rec, diagCluster)); werr != nil {
			fmt.Fprintln(stderr, "yafim: partial diagnosis:", werr)
		}
	}
}

// report prints the human-readable tail of a successful run: passes,
// itemsets in the requested mode, and association rules when asked for.
func report(stdout io.Writer, f cliFlags, trace *yafim.Trace, db *yafim.DB) error {
	if !f.quiet {
		printPasses(stdout, trace)
		switch f.mode {
		case "all":
			printItemsets(stdout, trace.Result, f.top)
		case "closed":
			printDerived(stdout, "closed", trace.Result.Closed(), f.top)
		case "maximal":
			printDerived(stdout, "maximal", trace.Result.Maximal(), f.top)
		default:
			return fmt.Errorf("unknown mode %q", f.mode)
		}
	}
	if f.ruleConf > 0 {
		rules, err := yafim.GenerateRules(trace.Result, f.ruleConf, db.Len())
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "rules (confidence >= %g): %d\n", f.ruleConf, len(rules))
		for i, r := range rules {
			if i >= f.top {
				fmt.Fprintf(stdout, "  ... %d more\n", len(rules)-i)
				break
			}
			fmt.Fprintln(stdout, " ", r)
		}
	}
	return nil
}

// writeTrace writes the recorded virtual timeline as Chrome trace-event
// JSON, loadable in Perfetto or chrome://tracing.
func writeTrace(path string, rec *yafim.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := yafim.WriteChromeTrace(f, rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeJournalFile writes the recorded run as a JSONL event journal.
func writeJournalFile(path string, rec *yafim.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := yafim.WriteJournal(f, rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// jsonPass is one mining pass in the -json summary.
type jsonPass struct {
	K          int             `json:"k"`
	Candidates int             `json:"candidates"`
	Frequent   int             `json:"frequent"`
	VirtualNS  int64           `json:"virtual_ns"`
	Counters   *yafim.Counters `json:"counters,omitempty"`
}

// jsonSummary is the machine-readable run summary emitted by -json.
type jsonSummary struct {
	Engine   string          `json:"engine"`
	Support  float64         `json:"support"`
	Frequent int             `json:"frequent"`
	MaxK     int             `json:"max_k"`
	TotalNS  int64           `json:"total_virtual_ns"`
	Total    string          `json:"total_virtual"`
	Passes   []jsonPass      `json:"passes"`
	Counters *yafim.Counters `json:"counters,omitempty"`
}

func writeJSONSummary(w io.Writer, eng yafim.Engine, support float64,
	trace *yafim.Trace, rec *yafim.Recorder) error {
	s := jsonSummary{
		Engine:   eng.String(),
		Support:  support,
		Frequent: trace.Result.NumFrequent(),
		MaxK:     trace.Result.MaxK(),
		TotalNS:  int64(trace.TotalDuration()),
		Total:    trace.TotalDuration().Round(time.Microsecond).String(),
	}
	for _, p := range trace.Passes {
		jp := jsonPass{
			K: p.K, Candidates: p.Candidates, Frequent: p.Frequent,
			VirtualNS: int64(p.Duration),
		}
		if !p.Counters.IsZero() {
			c := p.Counters
			jp.Counters = &c
		}
		s.Passes = append(s.Passes, jp)
	}
	if rec != nil {
		c := rec.Counters()
		s.Counters = &c
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

func printPasses(w io.Writer, trace *yafim.Trace) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "pass\tcandidates\tfrequent\ttime")
	for _, p := range trace.Passes {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%v\n", p.K, p.Candidates, p.Frequent, p.Duration.Round(1e6))
	}
	tw.Flush()
}

func printDerived(w io.Writer, kind string, sets []yafim.SetCount, top int) {
	fmt.Fprintf(w, "%s itemsets: %d\n", kind, len(sets))
	for i, sc := range sets {
		if i >= top {
			fmt.Fprintf(w, "  ... %d more\n", len(sets)-i)
			break
		}
		fmt.Fprintf(w, "  %v  sup=%d\n", sc.Set, sc.Count)
	}
}

func printItemsets(w io.Writer, res *yafim.Result, top int) {
	printed := 0
	for k := res.MaxK(); k >= 1 && printed < top; k-- {
		for _, sc := range res.Frequent(k) {
			if printed >= top {
				break
			}
			fmt.Fprintf(w, "  %v  sup=%d\n", sc.Set, sc.Count)
			printed++
		}
	}
	if total := res.NumFrequent(); total > printed {
		fmt.Fprintf(w, "  ... %d more (largest first)\n", total-printed)
	}
}

// runDistWorker joins the given master and serves until SIGINT/SIGTERM,
// then drains gracefully (the in-flight task finishes and is reported).
// With -dist-chaos, every HTTP call the worker makes — master RPC and peer
// map-output fetches alike — runs through the seeded fault transport.
func runDistWorker(ctx context.Context, f cliFlags, stderr io.Writer) error {
	if f.distMaster == "" {
		return fmt.Errorf("-dist worker requires -dist-master http://host:port")
	}
	opts := yafim.DistWorkerOptions{MasterURL: f.distMaster}
	if f.distChaos != 0 {
		ct, err := yafim.NewDistChaosTransport(yafim.DefaultDistTransportPlan(f.distChaos), nil)
		if err != nil {
			return err
		}
		opts.Transport = ct
		fmt.Fprintf(stderr, "yafim: worker under chaos transport, seed %d\n", f.distChaos)
	}
	fmt.Fprintf(stderr, "yafim: worker joining %s\n", f.distMaster)
	return yafim.RunDistWorker(ctx, opts)
}

// distJournal opens the live protocol journal for a dist-mode run. The
// returned close runs on every exit path of the caller.
func distJournal(path string) (*yafim.LiveLog, func(), error) {
	if path == "" {
		return yafim.NewLiveLog(nil), func() {}, nil
	}
	jf, err := os.Create(path)
	if err != nil {
		return nil, nil, fmt.Errorf("-journal: %w", err)
	}
	return yafim.NewLiveLog(jf), func() { jf.Close() }, nil
}

// runDistMaster serves the worker protocol on -dist-addr, waits for
// -dist-workers workers to register, then mines -input across them.
func runDistMaster(ctx context.Context, f cliFlags, stdout, stderr io.Writer) error {
	if f.input == "" {
		return fmt.Errorf("-dist master requires -input")
	}
	db, err := yafim.LoadFile(filepath.Base(f.input), f.input)
	if err != nil {
		return err
	}
	st := db.ComputeStats()
	fmt.Fprintf(stdout, "%s: %d transactions, %d items, avg length %.1f\n",
		f.input, st.NumTransactions, st.NumItems, st.AvgLength)

	log, closeJournal, err := distJournal(f.journal)
	if err != nil {
		return err
	}
	defer closeJournal()
	if f.distResume && f.distWAL == "" {
		return fmt.Errorf("-dist-resume requires -dist-wal")
	}
	tuning := yafim.DefaultDistTuning()
	if f.distCacheB != 0 {
		tuning.InputCacheBytes = f.distCacheB
	}
	master, err := yafim.StartDistMaster(yafim.DistMasterOptions{
		Addr: f.distAddr, Tuning: tuning,
		Log: log, Reg: yafim.NewMetricsRegistry(),
		JournalPath: f.distWAL, Resume: f.distResume,
	})
	if err != nil {
		return err
	}
	defer master.Close()
	if f.distWAL != "" {
		mode := "journaling to"
		if f.distResume {
			mode = "resumed from"
		}
		fmt.Fprintf(stderr, "yafim: master %s %s\n", mode, f.distWAL)
	}
	fmt.Fprintf(stderr, "yafim: master serving worker protocol on %s (journal: /dist/events, metrics: /metrics)\n", master.URL())
	fmt.Fprintf(stderr, "yafim: waiting for %d worker(s); start them with: yafim -dist worker -dist-master %s\n",
		f.distWorkers, master.URL())
	if err := waitWorkers(ctx, master, f.distWorkers, 0); err != nil {
		return err
	}

	if f.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.timeout)
		defer cancel()
	}
	trace, err := yafim.MineDistributed(ctx, master, f.input, f.support, yafim.Options{MaxK: f.maxK})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "engine=dist-mapreduce support=%g%% frequent=%d maxk=%d time=%v workers=%d\n",
		f.support*100, trace.Result.NumFrequent(), trace.Result.MaxK(),
		trace.TotalDuration().Round(1e6), master.LiveWorkers())
	return report(stdout, f, trace, db)
}

// waitWorkers polls until at least n workers are registered and alive.
// A zero deadline waits until ctx is canceled.
func waitWorkers(ctx context.Context, master *yafim.DistMaster, n int, deadline time.Duration) error {
	var expire <-chan time.Time
	if deadline > 0 {
		timer := time.NewTimer(deadline)
		defer timer.Stop()
		expire = timer.C
	}
	for master.LiveWorkers() < n {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-expire:
			return fmt.Errorf("only %d of %d workers registered in %v", master.LiveWorkers(), n, deadline)
		case <-time.After(50 * time.Millisecond):
		}
	}
	return nil
}

// runDistSmoke is the self-contained distributed demo and CI gate: fork
// real worker processes, SIGKILL one the moment tasks start completing,
// and verify the surviving run's itemsets match the in-memory sim oracle
// byte for byte.
func runDistSmoke(ctx context.Context, f cliFlags, stdout, stderr io.Writer) error {
	logsDir := f.distLogs
	if logsDir == "" {
		var err error
		if logsDir, err = os.MkdirTemp("", "yafim-dist-smoke-"); err != nil {
			return err
		}
	} else if err := os.MkdirAll(logsDir, 0o755); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "yafim: smoke logs under %s\n", logsDir)

	// The workload: the named input file, or a generated slice of the
	// paper's MushRoom benchmark (dense, several candidate levels deep —
	// plenty of passes for the kill to land mid-run).
	input, support := f.input, f.support
	if input == "" {
		if !f.supportSet {
			support = 0.35 // the paper's MushRoom threshold
		}
		db, err := yafim.GenDataset("MushRoom", 0.05, 2014)
		if err != nil {
			return err
		}
		input = filepath.Join(logsDir, "mushroom.dat")
		if err := yafim.SaveFile(db, input); err != nil {
			return err
		}
	}
	db, err := yafim.LoadFile(filepath.Base(input), input)
	if err != nil {
		return err
	}

	// The oracle: same dataset and support on the in-memory sim.
	oracle, err := yafim.MineContext(ctx, db, support, yafim.Options{
		Engine: yafim.EngineMapReduce, MaxK: f.maxK,
	})
	if err != nil {
		return fmt.Errorf("sim oracle: %w", err)
	}

	log, closeJournal, err := distJournal(filepath.Join(logsDir, "master-journal.jsonl"))
	if err != nil {
		return err
	}
	defer closeJournal()
	tuning := yafim.DistTuning{
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  time.Second,
		LeaseDeadline:     60 * time.Second,
		InputCacheBytes:   f.distCacheB,
	}
	wal := f.distWAL
	if wal == "" {
		wal = filepath.Join(logsDir, "master.wal")
	}
	master, err := yafim.StartDistMaster(yafim.DistMasterOptions{
		Addr: "127.0.0.1:0", Tuning: tuning,
		Log: log, Reg: yafim.NewMetricsRegistry(), JournalPath: wal,
	})
	if err != nil {
		return err
	}
	defer master.Close()

	if f.distWorkers < 2 && f.distKill {
		return fmt.Errorf("-dist smoke needs -dist-workers >= 2 to survive a kill")
	}
	exe, err := os.Executable()
	if err != nil {
		exe = os.Args[0]
	}
	workers := make([]*osexec.Cmd, 0, f.distWorkers)
	logFiles := make([]*os.File, 0, f.distWorkers)
	defer func() {
		// Every exit path reaps every child: TERM first (graceful drain),
		// KILL whatever ignores it.
		for _, w := range workers {
			if w.ProcessState == nil {
				w.Process.Signal(syscall.SIGTERM) //nolint:errcheck
			}
		}
		for _, w := range workers {
			if w.ProcessState == nil {
				done := make(chan struct{})
				go func(c *osexec.Cmd) { c.Wait(); close(done) }(w) //nolint:errcheck
				select {
				case <-done:
				case <-time.After(5 * time.Second):
					w.Process.Kill() //nolint:errcheck
					<-done
				}
			}
		}
		for _, lf := range logFiles {
			lf.Close()
		}
	}()
	for i := 0; i < f.distWorkers; i++ {
		lf, err := os.Create(filepath.Join(logsDir, fmt.Sprintf("worker-%d.log", i)))
		if err != nil {
			return err
		}
		logFiles = append(logFiles, lf)
		wargs := []string{"-dist", "worker", "-dist-master", master.URL()}
		if f.distChaos != 0 {
			// Each worker gets its own seed so their fault schedules differ;
			// parity against the oracle must hold under all of them at once.
			wargs = append(wargs, "-dist-chaos", fmt.Sprint(f.distChaos+int64(i)))
		}
		cmd := osexec.Command(exe, wargs...)
		// The re-exec gate: a test binary hosting this code routes the
		// child into run() when it sees this variable; the real yafim
		// binary just parses the args.
		cmd.Env = append(os.Environ(), "YAFIM_CLI_REEXEC=1")
		cmd.Stdout = lf
		cmd.Stderr = lf
		if err := cmd.Start(); err != nil {
			return err
		}
		workers = append(workers, cmd)
	}
	if err := waitWorkers(ctx, master, f.distWorkers, 30*time.Second); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "yafim: %d workers up, mining %s at support %g\n",
		f.distWorkers, filepath.Base(input), support)

	if f.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.timeout)
		defer cancel()
	}

	// The assassin: at the first completed task, SIGKILL worker 0 — no
	// drain, no deregistration; its map outputs die with it.
	killed := make(chan struct{})
	if f.distKill {
		go func() {
			defer close(killed)
			for {
				select {
				case <-ctx.Done():
					return
				case <-time.After(5 * time.Millisecond):
				}
				for _, ev := range log.Events() {
					if ev.Event == "task_complete" {
						workers[0].Process.Kill() //nolint:errcheck
						fmt.Fprintf(stderr, "yafim: SIGKILLed worker pid %d mid-run\n", workers[0].Process.Pid)
						return
					}
				}
			}
		}()
	}

	trace, err := yafim.MineDistributed(ctx, master, input, support, yafim.Options{MaxK: f.maxK})
	if err != nil {
		return fmt.Errorf("distributed run: %w (worker logs under %s)", err, logsDir)
	}

	if !trace.Result.Equal(oracle.Result) {
		return fmt.Errorf("dist-smoke: PARITY FAILED — distributed itemsets diverge from the sim oracle (%d vs %d frequent; logs under %s)",
			trace.Result.NumFrequent(), oracle.Result.NumFrequent(), logsDir)
	}
	if err := verifyCacheCounters(master.URL(), logsDir, log, len(trace.Passes), f.distCacheB, stderr); err != nil {
		return err
	}
	killNote := "no worker killed"
	if f.distKill {
		select {
		case <-killed:
			killNote = "1 worker SIGKILLed mid-run"
		default:
			return fmt.Errorf("dist-smoke: run finished before any task completion was observed; kill never fired")
		}
	}
	if f.distChaos != 0 {
		killNote += fmt.Sprintf(", chaos transport seed %d", f.distChaos)
	}
	fmt.Fprintf(stdout, "dist-smoke: PARITY OK — %d frequent itemsets (maxk=%d) across %d workers, %s\n",
		oracle.Result.NumFrequent(), oracle.Result.MaxK(), f.distWorkers, killNote)
	fmt.Fprintf(stdout, "engine=dist-mapreduce support=%g%% frequent=%d maxk=%d time=%v\n",
		support*100, trace.Result.NumFrequent(), trace.Result.MaxK(),
		trace.TotalDuration().Round(1e6))
	return nil
}

// verifyCacheCounters fetches the master's /metrics after a smoke run, saves
// the dump next to the worker logs (CI uploads it on failure), and asserts
// the block-cache invariant the tentpole fix exists for: with caching on at
// default budget, the input is parsed from disk at most once per worker
// incarnation per split — never once per pass — and any multi-pass run must
// have been served hits from the cache. cacheBytes is the -dist-cache-bytes
// override; a non-default budget can legitimately evict, so only the dump is
// written then.
func verifyCacheCounters(masterURL, logsDir string, log *yafim.LiveLog,
	passes int, cacheBytes int64, stderr io.Writer) error {
	res, err := http.Get(masterURL + "/metrics")
	if err != nil {
		return fmt.Errorf("dist-smoke: fetch /metrics: %w", err)
	}
	dump, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		return fmt.Errorf("dist-smoke: read /metrics: %w", err)
	}
	dumpPath := filepath.Join(logsDir, "cache-metrics.prom")
	if err := os.WriteFile(dumpPath, dump, 0o644); err != nil {
		return err
	}

	// One registration = one worker incarnation = one cold cache; one
	// job_start Detail names the split count. Both come from the live
	// protocol journal the smoke run already keeps.
	registrations, maxMaps := 0, 0
	for _, ev := range log.Events() {
		switch ev.Event {
		case "worker_register":
			registrations++
		case "job_start":
			var m, r int
			if _, err := fmt.Sscanf(ev.Detail, "%d maps, %d reduces", &m, &r); err == nil && m > maxMaps {
				maxMaps = m
			}
		}
	}
	reads, ok := metricValue(string(dump), "dist_input_reads_total")
	if !ok {
		return fmt.Errorf("dist-smoke: dist_input_reads_total missing from /metrics (dump: %s)", dumpPath)
	}
	hits, _ := metricValue(string(dump), "dist_input_cache_hits_total")
	if cacheBytes != 0 {
		fmt.Fprintf(stderr, "yafim: cache counters recorded (custom budget, invariant not asserted): %v reads, %v hits (dump: %s)\n",
			reads, hits, dumpPath)
		return nil
	}
	if limit := float64(registrations * maxMaps); reads > limit || registrations == 0 || maxMaps == 0 {
		return fmt.Errorf("dist-smoke: CACHE INVARIANT FAILED — %v disk reads across %d worker registration(s) x %d splits (limit %v): the input was re-read across passes (dump: %s)",
			reads, registrations, maxMaps, registrations*maxMaps, dumpPath)
	}
	if passes >= 2 && hits <= 0 {
		return fmt.Errorf("dist-smoke: CACHE INVARIANT FAILED — %d passes ran with zero block-cache hits (dump: %s)",
			passes, dumpPath)
	}
	fmt.Fprintf(stderr, "yafim: cache counters OK — %v disk reads (<= %d registrations x %d splits), %v hits over %d passes (dump: %s)\n",
		reads, registrations, maxMaps, hits, passes, dumpPath)
	return nil
}

// metricValue extracts an un-labelled metric's value from a Prometheus text
// dump.
func metricValue(dump, name string) (float64, bool) {
	for _, line := range strings.Split(dump, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return v, true
			}
		}
	}
	return 0, false
}
