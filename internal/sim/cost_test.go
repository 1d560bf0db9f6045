package sim

import "testing"

func TestCostSub(t *testing.T) {
	a := Cost{CPUOps: 100, DiskRead: 50, DiskWrite: 20, Net: 10}
	b := Cost{CPUOps: 40, DiskRead: 50, DiskWrite: 5, Net: 12}
	got := a.Sub(b)
	want := Cost{CPUOps: 60, DiskRead: 0, DiskWrite: 15, Net: -2}
	if got != want {
		t.Fatalf("Sub = %+v, want %+v", got, want)
	}
	if a.Sub(a) != (Cost{}) {
		t.Fatal("a - a not zero")
	}
}

func TestHumanBytes(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{0, "0B"},
		{1, "1B"},
		{1023, "1023B"},
		{1024, "1.0KB"},
		{1536, "1.5KB"},
		{1 << 20, "1.0MB"},
		{5<<20 + 1<<19, "5.5MB"},
		{1 << 30, "1.0GB"},
		{3 << 30, "3.0GB"},
		{-512, "-512B"},
		{-(1 << 21), "-2.0MB"},
	}
	for _, c := range cases {
		if got := HumanBytes(c.n); got != c.want {
			t.Errorf("HumanBytes(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestCostString(t *testing.T) {
	c := Cost{CPUOps: 12, DiskRead: 2048, DiskWrite: 100, Net: 3 << 20}
	if got, want := c.String(), "cpu=12 dr=2.0KB dw=100B net=3.0MB"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}
