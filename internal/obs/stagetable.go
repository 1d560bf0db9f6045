package obs

import (
	"fmt"
	"io"
	"reflect"
	"text/tabwriter"
	"time"
)

// stragglerFactor flags a stage as skewed when its slowest task ran longer
// than this multiple of the mean task time — the usual first question a
// Spark Web UI stage table answers. The analyzer flags a task against the
// stage's median instead.
const stragglerFactor = 2.0

// StageStats summarises one stage's task-time distribution.
type StageStats struct {
	Job       string
	Engine    string
	Pass      int
	Stage     string
	Tasks     int
	Retries   int // failed attempts across the stage's tasks
	Makespan  time.Duration
	MinTask   time.Duration
	MaxTask   time.Duration
	MeanTask  time.Duration
	Straggler bool // MaxTask > stragglerFactor * MeanTask
}

// StageTable flattens the recorded jobs into per-stage skew statistics, in
// execution order.
func StageTable(r *Recorder) []StageStats {
	var out []StageStats
	for _, job := range r.Jobs() {
		for _, st := range job.Stages {
			row := StageStats{
				Job: job.Name, Engine: job.Engine, Pass: job.Pass,
				Stage: st.Name, Tasks: len(st.Tasks), Makespan: st.Makespan,
			}
			var sum time.Duration
			for i, task := range st.Tasks {
				d := task.Duration()
				sum += d
				if i == 0 || d < row.MinTask {
					row.MinTask = d
				}
				if d > row.MaxTask {
					row.MaxTask = d
				}
				if task.Attempts > 1 {
					row.Retries += task.Attempts - 1
				}
			}
			if len(st.Tasks) > 0 {
				row.MeanTask = sum / time.Duration(len(st.Tasks))
				row.Straggler = float64(row.MaxTask) > stragglerFactor*float64(row.MeanTask)
			}
			out = append(out, row)
		}
	}
	return out
}

// maxNameWidth caps the job and stage name columns so one generated name
// (e.g. a deep lineage string) cannot blow the whole table's alignment.
const maxNameWidth = 40

// truncName shortens s to maxNameWidth runes, marking the cut with an
// ellipsis.
func truncName(s string) string {
	runes := []rune(s)
	if len(runes) <= maxNameWidth {
		return s
	}
	return string(runes[:maxNameWidth-1]) + "…"
}

// WriteStageTable renders the Spark-Web-UI-style stage table: one row per
// executed stage with task count, makespan, and the min/mean/max task-time
// spread, flagging straggler-skewed stages.
func WriteStageTable(w io.Writer, r *Recorder) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "job\tpass\tstage\ttasks\tretries\tmakespan\tmin\tmean\tmax\tskew")
	for _, row := range StageTable(r) {
		skew := ""
		if row.Straggler {
			skew = "STRAGGLER"
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%d\t%v\t%v\t%v\t%v\t%s\n",
			truncName(row.Job), row.Pass, truncName(row.Stage), row.Tasks, row.Retries,
			row.Makespan.Round(time.Microsecond),
			row.MinTask.Round(time.Microsecond),
			row.MeanTask.Round(time.Microsecond),
			row.MaxTask.Round(time.Microsecond),
			skew)
	}
	return tw.Flush()
}

// WriteCounters renders the counter snapshot as an aligned key/value table:
// one row per Counters field, named by its json tag, in declaration order.
func WriteCounters(w io.Writer, c Counters) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	v := reflect.ValueOf(c)
	for i := 0; i < v.NumField(); i++ {
		fmt.Fprintf(tw, "%s\t%v\n", jsonTag(v.Type().Field(i)), v.Field(i).Interface())
	}
	return tw.Flush()
}
