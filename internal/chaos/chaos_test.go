package chaos

import (
	"math"
	"testing"
	"time"
)

func TestNilPlanInjectsNothing(t *testing.T) {
	var p *Plan
	if p.TaskFails("map", 0, 0) || p.FetchFails("shuffle", 0) || p.ReadFails("/a", 0) {
		t.Fatal("nil plan injected a fault")
	}
	if p.NodeFactors(4) != nil {
		t.Fatal("nil plan produced straggler factors")
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("nil plan failed validation: %v", err)
	}
}

func TestDecisionsAreDeterministic(t *testing.T) {
	p := &Plan{Seed: 7, TaskFailProb: 0.5, FetchFailProb: 0.5, BlockReadFailProb: 0.5}
	q := &Plan{Seed: 7, TaskFailProb: 0.5, FetchFailProb: 0.5, BlockReadFailProb: 0.5}
	for task := 0; task < 50; task++ {
		for attempt := 0; attempt < 4; attempt++ {
			if p.TaskFails("stage", task, attempt) != q.TaskFails("stage", task, attempt) {
				t.Fatalf("TaskFails(%d,%d) differs across identical plans", task, attempt)
			}
		}
		if p.FetchVictim("s", task, 8) != q.FetchVictim("s", task, 8) {
			t.Fatalf("FetchVictim(%d) differs across identical plans", task)
		}
	}
}

func TestDecisionsIndependentOfCallOrder(t *testing.T) {
	p := &Plan{Seed: 3, TaskFailProb: 0.5}
	// Record forward, then compare against reverse-order calls.
	fwd := make([]bool, 100)
	for i := range fwd {
		fwd[i] = p.TaskFails("s", i, 0)
	}
	for i := len(fwd) - 1; i >= 0; i-- {
		if p.TaskFails("s", i, 0) != fwd[i] {
			t.Fatalf("TaskFails(%d) depends on call order", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := &Plan{Seed: 1, TaskFailProb: 0.5}
	b := &Plan{Seed: 2, TaskFailProb: 0.5}
	same := true
	for i := 0; i < 64 && same; i++ {
		same = a.TaskFails("s", i, 0) == b.TaskFails("s", i, 0)
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical fault streams")
	}
}

func TestFailureRateTracksProbability(t *testing.T) {
	p := &Plan{Seed: 42, TaskFailProb: 0.2}
	n, fails := 20000, 0
	for i := 0; i < n; i++ {
		if p.TaskFails("s", i, 0) {
			fails++
		}
	}
	got := float64(fails) / float64(n)
	if math.Abs(got-0.2) > 0.02 {
		t.Fatalf("empirical failure rate %.3f, want ~0.20", got)
	}
}

func TestFetchVictimInRange(t *testing.T) {
	p := &Plan{Seed: 9}
	for part := 0; part < 100; part++ {
		if v := p.FetchVictim("s", part, 7); v < 0 || v >= 7 {
			t.Fatalf("FetchVictim out of range: %d", v)
		}
		if v := p.FailureNode("s", part, 1, 12); v < 0 || v >= 12 {
			t.Fatalf("FailureNode out of range: %d", v)
		}
	}
}

func TestNodeFactors(t *testing.T) {
	p := &Plan{Seed: 1, Stragglers: []Straggler{{Node: 2, Factor: 4}, {Node: 99, Factor: 8}}}
	f := p.NodeFactors(4)
	want := []float64{1, 1, 4, 1}
	if len(f) != len(want) {
		t.Fatalf("NodeFactors len = %d, want %d", len(f), len(want))
	}
	for i := range want {
		if f[i] != want[i] {
			t.Fatalf("NodeFactors[%d] = %g, want %g", i, f[i], want[i])
		}
	}
	// All stragglers outside the cluster: no table at all.
	if got := p.NodeFactors(2); got != nil {
		t.Fatalf("NodeFactors(2) = %v, want nil", got)
	}
}

func TestValidateRejectsBadPlans(t *testing.T) {
	bad := []*Plan{
		{TaskFailProb: -0.1},
		{FetchFailProb: 1.5},
		{BlockReadFailProb: 2},
		{Stragglers: []Straggler{{Node: -1, Factor: 2}}},
		{Stragglers: []Straggler{{Node: 0, Factor: 0.5}}},
		{Crash: &NodeCrash{Node: -1}},
		{Crash: &NodeCrash{Node: 0, At: -time.Second}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad plan %d passed validation", i)
		}
	}
	if err := DefaultPlan(1).Validate(); err != nil {
		t.Fatalf("DefaultPlan failed validation: %v", err)
	}
}

func TestNodeHealthBlacklisting(t *testing.T) {
	res := Resilience{BlacklistAfter: 3, BlacklistBase: 10 * time.Second}
	h := NewNodeHealth(4, res)

	// Two strikes: not yet blacklisted.
	if h.RecordFailure(1, 0) || h.RecordFailure(1, time.Second) {
		t.Fatal("blacklisted before reaching the threshold")
	}
	if h.Excluded(2*time.Second) != nil {
		t.Fatal("node excluded before reaching the threshold")
	}

	// Third strike opens a BlacklistBase window.
	if !h.RecordFailure(1, 2*time.Second) {
		t.Fatal("third strike did not blacklist")
	}
	ex := h.Excluded(5 * time.Second)
	if ex == nil || !ex[1] {
		t.Fatalf("node 1 not excluded during window: %v", ex)
	}
	if h.Excluded(13*time.Second) != nil {
		t.Fatal("exclusion persisted past the window")
	}

	// Fourth strike doubles the window: 20s from now.
	if !h.RecordFailure(1, 20*time.Second) {
		t.Fatal("fourth strike did not blacklist")
	}
	if ex := h.Excluded(39 * time.Second); ex == nil || !ex[1] {
		t.Fatal("doubled window not in effect")
	}
	if h.Excluded(41*time.Second) != nil {
		t.Fatal("doubled window lasted too long")
	}
}

func TestNodeHealthNeverExcludesEverything(t *testing.T) {
	res := Resilience{BlacklistAfter: 1, BlacklistBase: time.Hour}
	h := NewNodeHealth(2, res)
	h.RecordFailure(0, 0)
	h.RecordFailure(1, 0)
	if ex := h.Excluded(time.Second); ex != nil {
		t.Fatalf("all nodes excluded would deadlock the scheduler: %v", ex)
	}

	// With one node dead and the other blacklisted, only the dead node stays
	// excluded.
	h.MarkDead(0)
	ex := h.Excluded(time.Second)
	if ex == nil || !ex[0] || ex[1] {
		t.Fatalf("want only dead node excluded, got %v", ex)
	}
}

func TestNodeHealthNilSafe(t *testing.T) {
	var h *NodeHealth
	if h.RecordFailure(0, 0) {
		t.Fatal("nil health blacklisted")
	}
	h.MarkDead(0)
	if h.Excluded(0) != nil {
		t.Fatal("nil health excluded a node")
	}
}

func TestInjectedErrorMessage(t *testing.T) {
	e := &InjectedError{Stage: "map", Task: 3, Attempt: 1}
	want := `chaos: injected failure in stage "map" task 3 attempt 1`
	if e.Error() != want {
		t.Fatalf("Error() = %q, want %q", e.Error(), want)
	}
}
