package obs

import (
	"fmt"
	"io"
	"sort"
	"time"

	"yafim/internal/cluster"
	"yafim/internal/sim"
)

// The analyzer turns a recorded run into a diagnosis: which spans the total
// virtual time is actually waiting on (the critical path), which stages are
// skewed and why (hot partitions versus injected stragglers), and where the
// hot partitions live. It consumes only the span tree — it never touches the
// ledger or the schedule — so analysis can run during or after a run without
// perturbing a single metered byte.

// AnalyzeOptions tunes a diagnosis.
type AnalyzeOptions struct {
	// Cluster, when set, lets the straggler analysis compare each task's
	// scheduled duration against the duration its metered cost predicts,
	// separating environment-slowed tasks from genuinely heavy ones. Without
	// it the analysis falls back to comparing cost shares.
	Cluster *cluster.Config
}

// The analyzer's fixed thresholds. A task is a straggler when it ran longer
// than stragglerFactor times the stage's median task time.
const (
	// hotPartitions bounds the hot-partition list per stage.
	hotPartitions = 3
	// slowdownFactor attributes a straggler to its environment when its
	// duration exceeds this multiple of its cost-predicted duration.
	slowdownFactor = 1.5
)

// Straggler causes.
const (
	// CauseEnvironment: the task ran far longer than its metered cost
	// predicts — a slowed node (chaos-injected straggler), not heavy data.
	CauseEnvironment = "environment"
	// CauseRetries: the task's duration includes failed attempts relaunching.
	CauseRetries = "retries"
	// CauseDataSkew: the task really did carry more work — a hot partition.
	CauseDataSkew = "data-skew"
)

// CriticalStep is one segment of the run's critical path. Because jobs are
// sequential and stages within a job are synchronous barriers, the critical
// path is the chain job-overhead -> per-stage slowest chain, and the sum of
// step durations equals the run's makespan exactly.
type CriticalStep struct {
	Job      string        `json:"job"`
	Engine   string        `json:"engine"`
	Pass     int           `json:"pass"`
	Kind     string        `json:"kind"` // "job-overhead" or "stage"
	Stage    string        `json:"stage,omitempty"`
	Duration time.Duration `json:"duration"`
	// Task identifies the last-finishing task that held the stage barrier
	// open (-1 for overhead steps or stages with no recorded tasks).
	Task int `json:"task"`
	Node int `json:"node"`
}

// HotPartition is one of a stage's heaviest tasks.
type HotPartition struct {
	Task     int           `json:"task"`
	Node     int           `json:"node"`
	Duration time.Duration `json:"duration"`
	// Share is the fraction of the stage's summed task time this task used.
	Share float64 `json:"share"`
}

// StragglerDiag is one flagged straggler task with its attributed cause.
type StragglerDiag struct {
	Task     int           `json:"task"`
	Node     int           `json:"node"`
	Duration time.Duration `json:"duration"`
	// Expected is the cost-predicted duration (0 when no cluster config was
	// supplied).
	Expected time.Duration `json:"expected,omitempty"`
	// Slowdown is Duration / Expected when Expected is known.
	Slowdown float64 `json:"slowdown,omitempty"`
	Attempts int     `json:"attempts"`
	Cause    string  `json:"cause"`
}

// StageDiagnosis is the skew report for one executed stage.
type StageDiagnosis struct {
	Job        string        `json:"job"`
	Engine     string        `json:"engine"`
	Pass       int           `json:"pass"`
	Stage      string        `json:"stage"`
	Tasks      int           `json:"tasks"`
	Makespan   time.Duration `json:"makespan"`
	MaxTask    time.Duration `json:"max_task"`
	MedianTask time.Duration `json:"median_task"`
	// Gini measures partition-size inequality over the stage's tasks
	// (0 = perfectly even, 1 = one task carries everything), computed over
	// metered task costs when available, else task durations.
	Gini       float64         `json:"gini"`
	Hot        []HotPartition  `json:"hot,omitempty"`
	Stragglers []StragglerDiag `json:"stragglers,omitempty"`
}

// Diagnosis is the complete machine-readable analysis of one recorded run.
type Diagnosis struct {
	Makespan          time.Duration    `json:"makespan"`
	CriticalPath      []CriticalStep   `json:"critical_path"`
	CriticalPathTotal time.Duration    `json:"critical_path_total"`
	Stages            []StageDiagnosis `json:"stages"`
	Counters          Counters         `json:"counters"`
}

// Analyze builds the diagnosis of everything r has recorded so far.
func Analyze(r *Recorder, opts AnalyzeOptions) *Diagnosis {
	d := &Diagnosis{Counters: r.Counters()}
	for _, job := range r.Jobs() {
		d.Makespan += job.Duration()
		if job.Overhead > 0 {
			d.CriticalPath = append(d.CriticalPath, CriticalStep{
				Job: job.Name, Engine: job.Engine, Pass: job.Pass,
				Kind: "job-overhead", Duration: job.Overhead,
				Task: -1, Node: -1,
			})
		}
		for _, st := range job.Stages {
			step := CriticalStep{
				Job: job.Name, Engine: job.Engine, Pass: job.Pass,
				Kind: "stage", Stage: st.Name, Duration: st.Makespan,
				Task: -1, Node: -1,
			}
			// The stage barrier opens when its last task finishes; that
			// task (ties broken on the lowest index by the deterministic
			// scheduler walk) is the stage's critical task.
			var lastEnd time.Duration
			for _, t := range st.Tasks {
				if t.End > lastEnd {
					lastEnd = t.End
					step.Task = t.Index
					step.Node = t.Node
				}
			}
			d.CriticalPath = append(d.CriticalPath, step)
			d.Stages = append(d.Stages, diagnoseStage(job, st, opts))
		}
	}
	for _, s := range d.CriticalPath {
		d.CriticalPathTotal += s.Duration
	}
	return d
}

// diagnoseStage computes one stage's skew report.
func diagnoseStage(job JobSpan, st StageSpan, opts AnalyzeOptions) StageDiagnosis {
	out := StageDiagnosis{
		Job: job.Name, Engine: job.Engine, Pass: job.Pass,
		Stage: st.Name, Tasks: len(st.Tasks), Makespan: st.Makespan,
	}
	if len(st.Tasks) == 0 {
		return out
	}

	durs := make([]time.Duration, len(st.Tasks))
	var sumDur time.Duration
	for i, t := range st.Tasks {
		durs[i] = t.Duration()
		sumDur += durs[i]
		if durs[i] > out.MaxTask {
			out.MaxTask = durs[i]
		}
	}
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	out.MedianTask = sorted[len(sorted)/2]

	// Partition-size inequality: prefer metered costs (pure data volume),
	// fall back to durations when the stage carried no cost metering.
	sizes := make([]float64, len(st.Tasks))
	anyCost := false
	for i, t := range st.Tasks {
		sizes[i] = t.Cost.Norm()
		if sizes[i] > 0 {
			anyCost = true
		}
	}
	if !anyCost {
		for i, dur := range durs {
			sizes[i] = float64(dur)
		}
	}
	out.Gini = gini(sizes)

	// Top-k hot partitions by duration.
	order := make([]int, len(st.Tasks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return durs[order[a]] > durs[order[b]] })
	for _, i := range order[:min(hotPartitions, len(order))] {
		share := 0.0
		if sumDur > 0 {
			share = float64(durs[i]) / float64(sumDur)
		}
		out.Hot = append(out.Hot, HotPartition{
			Task: st.Tasks[i].Index, Node: st.Tasks[i].Node,
			Duration: durs[i], Share: share,
		})
	}

	// Straggler attribution over tasks exceeding factor x median.
	cutoff := time.Duration(float64(out.MedianTask) * stragglerFactor)
	medianNorm := medianOf(sizes)
	for i, t := range st.Tasks {
		if out.MedianTask <= 0 || durs[i] <= cutoff {
			continue
		}
		sd := StragglerDiag{
			Task: t.Index, Node: t.Node,
			Duration: durs[i], Attempts: t.Attempts,
		}
		sd.Cause = attributeStraggler(&sd, t, durs[i], medianNorm, opts)
		out.Stragglers = append(out.Stragglers, sd)
	}
	return out
}

// attributeStraggler decides why one straggler ran long. With a cluster
// config the test is direct: the performance model predicts the duration the
// task's metered cost should have taken on a healthy node; a large excess
// means the node was slowed (chaos), because data volume is already priced
// in. Retry-inflated tasks are attributed to retries, and tasks whose
// duration the cost fully explains carried genuinely heavy partitions.
func attributeStraggler(sd *StragglerDiag, t TaskSpan, dur time.Duration,
	medianNorm float64, opts AnalyzeOptions) string {
	if opts.Cluster != nil {
		expected := sim.ExpectedTaskTime(*opts.Cluster, t.Cost, t.Attempts-1, t.Remote)
		sd.Expected = expected
		if expected > 0 {
			sd.Slowdown = float64(dur) / float64(expected)
			if sd.Slowdown > slowdownFactor {
				return CauseEnvironment
			}
		}
		if t.Attempts > 1 {
			return CauseRetries
		}
		return CauseDataSkew
	}
	if t.Attempts > 1 {
		return CauseRetries
	}
	// No cluster config: a straggler whose metered cost is also far above
	// the stage median carried a hot partition; otherwise something outside
	// its data slowed it.
	if medianNorm > 0 && t.Cost.Norm() > stragglerFactor*medianNorm {
		return CauseDataSkew
	}
	return CauseEnvironment
}

// gini computes the Gini coefficient of the non-negative values
// (0 = perfectly even, approaching 1 = maximally concentrated).
func gini(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	var sum, weighted float64
	for i, v := range sorted {
		sum += v
		weighted += float64(i+1) * v
	}
	if sum == 0 {
		return 0
	}
	return 2*weighted/(float64(n)*sum) - float64(n+1)/float64(n)
}

func medianOf(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return sorted[len(sorted)/2]
}

// Validate checks the diagnosis' structural invariants — above all that the
// critical path accounts for the entire makespan, which is what makes it a
// critical path rather than a sample of slow spans.
func (d *Diagnosis) Validate() error {
	if d == nil {
		return fmt.Errorf("obs: nil diagnosis")
	}
	if d.CriticalPathTotal != d.Makespan {
		return fmt.Errorf("obs: critical path sums to %v but makespan is %v",
			d.CriticalPathTotal, d.Makespan)
	}
	var sum time.Duration
	for _, s := range d.CriticalPath {
		if s.Duration < 0 {
			return fmt.Errorf("obs: critical step %s/%s has negative duration %v",
				s.Job, s.Stage, s.Duration)
		}
		sum += s.Duration
	}
	if sum != d.CriticalPathTotal {
		return fmt.Errorf("obs: critical path steps sum to %v, recorded total %v",
			sum, d.CriticalPathTotal)
	}
	for _, st := range d.Stages {
		if st.Gini < 0 || st.Gini > 1 {
			return fmt.Errorf("obs: stage %s gini %v out of [0,1]", st.Stage, st.Gini)
		}
		for _, h := range st.Hot {
			if h.Share < 0 || h.Share > 1 {
				return fmt.Errorf("obs: stage %s hot partition share %v out of [0,1]",
					st.Stage, h.Share)
			}
		}
		for _, s := range st.Stragglers {
			switch s.Cause {
			case CauseEnvironment, CauseRetries, CauseDataSkew:
			default:
				return fmt.Errorf("obs: stage %s straggler cause %q unknown",
					st.Stage, s.Cause)
			}
		}
	}
	return nil
}

// WriteDiagnosis renders the diagnosis for humans: the critical path ranked
// by contribution, then the skewed stages with their hot partitions and
// attributed stragglers.
func WriteDiagnosis(w io.Writer, d *Diagnosis) error {
	if _, err := fmt.Fprintf(w, "makespan %v, critical path %d steps (sum %v)\n",
		d.Makespan.Round(time.Microsecond), len(d.CriticalPath),
		d.CriticalPathTotal.Round(time.Microsecond)); err != nil {
		return err
	}

	// Top critical-path contributors.
	steps := append([]CriticalStep(nil), d.CriticalPath...)
	sort.SliceStable(steps, func(a, b int) bool { return steps[a].Duration > steps[b].Duration })
	top := steps
	if len(top) > 10 {
		top = top[:10]
	}
	fmt.Fprintf(w, "\ncritical path (top %d by contribution):\n", len(top))
	for _, s := range top {
		share := 0.0
		if d.Makespan > 0 {
			share = 100 * float64(s.Duration) / float64(d.Makespan)
		}
		switch s.Kind {
		case "job-overhead":
			fmt.Fprintf(w, "  %8v %5.1f%%  %s/%s pass %d: job overhead\n",
				s.Duration.Round(time.Microsecond), share, s.Engine, s.Job, s.Pass)
		default:
			where := ""
			if s.Task >= 0 {
				where = fmt.Sprintf(" (held by task %d on node %d)", s.Task, s.Node)
			}
			fmt.Fprintf(w, "  %8v %5.1f%%  %s/%s pass %d: stage %s%s\n",
				s.Duration.Round(time.Microsecond), share, s.Engine, s.Job, s.Pass,
				s.Stage, where)
		}
	}

	// Stages worth a second look: skewed or straggling.
	var flagged []StageDiagnosis
	for _, st := range d.Stages {
		if len(st.Stragglers) > 0 || st.Gini > 0.4 {
			flagged = append(flagged, st)
		}
	}
	fmt.Fprintf(w, "\nskewed stages: %d of %d\n", len(flagged), len(d.Stages))
	for _, st := range flagged {
		fmt.Fprintf(w, "  %s/%s pass %d stage %s: %d tasks, median %v, max %v, gini %.2f\n",
			st.Engine, st.Job, st.Pass, st.Stage, st.Tasks,
			st.MedianTask.Round(time.Microsecond), st.MaxTask.Round(time.Microsecond),
			st.Gini)
		for _, h := range st.Hot {
			fmt.Fprintf(w, "    hot: task %d on node %d ran %v (%.1f%% of stage task time)\n",
				h.Task, h.Node, h.Duration.Round(time.Microsecond), 100*h.Share)
		}
		for _, s := range st.Stragglers {
			detail := ""
			if s.Expected > 0 {
				detail = fmt.Sprintf(", %.1fx its cost-predicted %v",
					s.Slowdown, s.Expected.Round(time.Microsecond))
			}
			fmt.Fprintf(w, "    straggler: task %d on node %d ran %v%s, %d attempt(s) -> %s\n",
				s.Task, s.Node, s.Duration.Round(time.Microsecond), detail,
				s.Attempts, s.Cause)
		}
	}
	return nil
}
