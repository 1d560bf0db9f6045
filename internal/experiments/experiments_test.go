package experiments

import (
	"context"
	"strings"
	"testing"
	"time"
)

// testEnv shrinks datasets so the suite stays fast while preserving every
// shape property the paper reports.
func testEnv() Env {
	env := DefaultEnv()
	env.Scale = 0.05
	return env
}

func TestRunTable1(t *testing.T) {
	rows, err := RunTable1(testEnv())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Dataset] = true
		if r.NumItems <= 0 || r.NumTransactions <= 0 || r.AvgLength <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
	}
	for _, want := range []string{"MushRoom", "T10I4D100K", "Chess", "Pumsb_star"} {
		if !names[want] {
			t.Errorf("missing dataset %s", want)
		}
	}
	var sb strings.Builder
	WriteTable1(&sb, rows)
	if !strings.Contains(sb.String(), "MushRoom") {
		t.Error("table output missing rows")
	}
}

func TestFindBenchmark(t *testing.T) {
	if _, err := FindBenchmark("Chess"); err != nil {
		t.Fatal(err)
	}
	if _, err := FindBenchmark("MedicalCases"); err != nil {
		t.Fatal(err)
	}
	if _, err := FindBenchmark("nope"); err == nil {
		t.Fatal("unknown benchmark resolved")
	}
}

// TestFig3Shape verifies the core claim on every benchmark: YAFIM total
// time beats MRApriori by a wide margin, and YAFIM's late passes drop far
// below MRApriori's per-job floor.
func TestFig3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment test")
	}
	env := testEnv()
	for _, b := range PaperBenchmarks() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			c, err := RunComparison(context.Background(), b, env)
			if err != nil {
				t.Fatal(err)
			}
			if sp := c.Speedup(); sp < 3 {
				t.Errorf("speedup = %.1fx; paper reports order-of-magnitude wins", sp)
			}
			// Every pass must be faster under YAFIM.
			n := min(len(c.YAFIM.Passes), len(c.MRApriori.Passes))
			for i := 0; i < n; i++ {
				if c.MRApriori.Passes[i].Duration == 0 {
					continue // later level of a combined job
				}
				if c.YAFIM.Passes[i].Duration >= c.MRApriori.Passes[i].Duration {
					t.Errorf("pass %d: YAFIM %v >= MRApriori %v", i+1,
						c.YAFIM.Passes[i].Duration, c.MRApriori.Passes[i].Duration)
				}
			}
			// Last YAFIM pass must undercut the MapReduce job-startup floor.
			last := c.YAFIM.Passes[len(c.YAFIM.Passes)-1].Duration
			if last >= env.Hadoop.JobStartup {
				t.Errorf("late YAFIM pass %v not below the %v job floor", last, env.Hadoop.JobStartup)
			}
			var sb strings.Builder
			WriteComparison(&sb, c)
			if !strings.Contains(sb.String(), "total") {
				t.Error("comparison output truncated")
			}
		})
	}
}

// TestFig4Shape verifies the sizeup property on one benchmark: MRApriori
// grows roughly linearly with replication while YAFIM grows much more
// slowly.
func TestFig4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment test")
	}
	env := testEnv()
	// Pumsb_star is the data-heaviest planted benchmark, where the growth
	// contrast is most visible.
	env.Scale = 0.2
	s, err := RunSizeup(context.Background(), PaperBenchmarks()[3], env, []int{1, 3, 6})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Fig. 4 contrast is about absolute slope: MRApriori's curve
	// climbs steeply with data volume while YAFIM's stays visually flat on
	// the same axes.
	yIncr := s.YAFIM[2] - s.YAFIM[0]
	mIncr := s.MRApriori[2] - s.MRApriori[0]
	if mIncr < 3*yIncr {
		t.Errorf("MRApriori slope %v not much steeper than YAFIM's %v", mIncr, yIncr)
	}
	for i := 1; i < len(s.YAFIM); i++ {
		if s.YAFIM[i] < s.YAFIM[i-1] {
			t.Errorf("YAFIM time decreased with more data: %v", s.YAFIM)
		}
		if s.MRApriori[i] < s.MRApriori[i-1] {
			t.Errorf("MRApriori time decreased with more data: %v", s.MRApriori)
		}
	}
	var sb strings.Builder
	WriteSizeup(&sb, s)
	if !strings.Contains(sb.String(), "replication") {
		t.Error("sizeup output truncated")
	}
}

// TestFig5Shape verifies near-linear node scalability of YAFIM: more nodes
// never slow it down, and 3x the nodes buys a clearly superlinear-in-one
// improvement factor.
func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment test")
	}
	env := testEnv()
	env.Scale = 0.2 // enough work for scaling to show
	s, err := RunSpeedup(context.Background(), PaperBenchmarks()[3], env, []int{4, 8, 12}, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(s.Durations); i++ {
		if s.Durations[i] > s.Durations[i-1] {
			t.Errorf("more nodes slowed YAFIM: %v", s.Durations)
		}
	}
	rel := s.Relative()
	if rel[len(rel)-1] < 1.5 {
		t.Errorf("12 nodes only %.2fx faster than 4", rel[len(rel)-1])
	}
	var sb strings.Builder
	WriteSpeedup(&sb, s)
	if !strings.Contains(sb.String(), "cores") {
		t.Error("speedup output truncated")
	}
}

// TestFig6Shape runs the medical application comparison (Sup = 3%).
func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment test")
	}
	env := testEnv()
	c, err := RunComparison(context.Background(), MedicalBenchmark(), env)
	if err != nil {
		t.Fatal(err)
	}
	if sp := c.Speedup(); sp < 3 {
		t.Errorf("medical speedup = %.1fx", sp)
	}
	// The paper notes YAFIM pass times shrink as iterations proceed (fewer
	// candidates); the last pass must be cheaper than the second.
	p := c.YAFIM.Passes
	if len(p) >= 3 && p[len(p)-1].Duration >= p[1].Duration {
		t.Errorf("late pass %v not cheaper than pass 2 %v", p[len(p)-1].Duration, p[1].Duration)
	}
}

func TestSummaryAverage(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment test")
	}
	env := testEnv()
	s, err := RunSummary(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Comparisons) != 4 {
		t.Fatalf("comparisons = %d", len(s.Comparisons))
	}
	if avg := s.AverageSpeedup(); avg < 3 {
		t.Errorf("average speedup = %.1fx", avg)
	}
	var sb strings.Builder
	WriteSummary(&sb, s)
	if !strings.Contains(sb.String(), "average") {
		t.Error("summary output truncated")
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment test")
	}
	env := testEnv()
	cases := []struct {
		name string
		b    Benchmark
		run  func(context.Context, Benchmark, Env) (*Ablation, error)
	}{
		{"broadcast", PaperBenchmarks()[0], RunBroadcastAblation},
		{"rdd-cache", PaperBenchmarks()[0], RunCacheAblation},
		// The hash tree only pays off once the candidate set is large, so its
		// ablation runs on the synthetic market-basket data whose second pass
		// carries a huge C2.
		{"hash-tree", PaperBenchmarks()[1], RunHashTreeAblation},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := c.b
			a, err := c.run(context.Background(), b, env)
			if err != nil {
				t.Fatal(err)
			}
			if a.Name != c.name || a.Dataset != b.Name {
				t.Errorf("ablation labels: %+v", a)
			}
			if a.Without <= a.With {
				t.Errorf("%s: feature off (%v) not slower than on (%v)", c.name, a.Without, a.With)
			}
			var sb strings.Builder
			WriteAblation(&sb, a)
			if !strings.Contains(sb.String(), c.name) {
				t.Error("ablation output truncated")
			}
		})
	}
}

func TestFmtDur(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{90 * time.Second, "1.5m"},
		{1500 * time.Millisecond, "1.5s"},
		{250 * time.Millisecond, "250ms"},
	}
	for _, c := range cases {
		if got := fmtDur(c.d); got != c.want {
			t.Errorf("fmtDur(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

// TestShapeChecksAllPass runs the user-facing claim checker at test scale;
// every claim must reproduce.
func TestShapeChecksAllPass(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment test")
	}
	env := testEnv() // scale 0.05 keeps the full sweep in the tens of seconds
	checks, err := RunShapeChecks(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) < 15 {
		t.Fatalf("only %d checks ran", len(checks))
	}
	var sb strings.Builder
	if failed := WriteChecks(&sb, checks); failed > 0 {
		t.Fatalf("%d claims failed:\n%s", failed, sb.String())
	}
	if !strings.Contains(sb.String(), "claims reproduced") {
		t.Error("report truncated")
	}
}
