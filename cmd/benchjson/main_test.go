package main

import (
	"strings"
	"testing"
)

// doc builds a one-benchmark document.
func doc(name string, metrics map[string]float64) *Doc {
	return &Doc{Benchmarks: []Benchmark{{Name: name, Iterations: 3, Metrics: metrics}}}
}

// baseline is a pipeline row with every kind of metric the gate tells
// apart: host time, allocation rate, simulated time and a count.
func baseline() *Doc {
	return doc("BenchmarkPass2YAFIM", map[string]float64{
		"ns/op": 3e8, "B/op": 1000, "allocs/op": 100, "virt-sec": 8.401, "records": 14439,
	})
}

// with returns the baseline with one metric set to v.
func with(unit string, v float64) *Doc {
	d := baseline()
	d.Benchmarks[0].Metrics[unit] = v
	return d
}

// without returns the baseline with one metric removed.
func without(unit string) *Doc {
	d := baseline()
	delete(d.Benchmarks[0].Metrics, unit)
	return d
}

func TestCompare(t *testing.T) {
	cases := []struct {
		name string
		cur  *Doc
		fail string // a substring of the one failure, "" for a pass
	}{
		{"identical", baseline(), ""},
		{"host time is not gated", with("ns/op", 9e9), ""},
		{"virt-sec rises", with("virt-sec", 8.402), "virt-sec moved 8.401 -> 8.402"},
		{"virt-sec falls", with("virt-sec", 8.4), "virt-sec moved 8.401 -> 8.4"},
		{"count rises", with("records", 14440), "records moved 14439 -> 14440"},
		{"count falls", with("records", 14438), "records moved 14439 -> 14438"},
		// 1000 * 1.2 + 1 = 1201 is the limit for B/op, 100 * 1.2 + 1 = 121
		// for allocs/op; a fall of either passes.
		{"bytes at the limit", with("B/op", 1201), ""},
		{"bytes past the limit", with("B/op", 1202), "B/op grew"},
		{"bytes fall", with("B/op", 10), ""},
		{"allocations at the limit", with("allocs/op", 121), ""},
		{"allocations past the limit", with("allocs/op", 122), "allocs/op grew"},
		{"metric missing", without("virt-sec"), "metric virt-sec missing"},
		{"host metric missing", without("ns/op"), ""},
		{"benchmark missing", doc("BenchmarkOther", baseline().Benchmarks[0].Metrics), "missing from current run"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := compare(baseline(), c.cur, 0.20)
			if c.fail == "" {
				if len(got) != 0 {
					t.Fatalf("failures %q, want none", got)
				}
				return
			}
			if len(got) != 1 || !strings.Contains(got[0], c.fail) {
				t.Fatalf("failures %q, want one containing %q", got, c.fail)
			}
		})
	}
}

// A metric that only the current run has is recorded, not gated: a new
// row or metric enters the gate when the baseline is regenerated.
func TestCompareIgnoresNewMetrics(t *testing.T) {
	cur := with("items", 42)
	cur.Benchmarks = append(cur.Benchmarks, doc("BenchmarkNew", map[string]float64{"records": 1}).Benchmarks...)
	if got := compare(baseline(), cur, 0.20); len(got) != 0 {
		t.Fatalf("failures %q, want none", got)
	}
}
