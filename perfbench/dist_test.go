package main

import (
	"testing"

	"yafim"
)

// Timed distributed runs set a cluster up and tear it down many times; every
// cycle must register both workers and close cleanly.
func TestClusterSetupAndCloseRepeat(t *testing.T) {
	for i := 0; i < 30; i++ {
		c, err := startCluster(yafim.NewLiveLog(nil), nil, nil)
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if n := c.master.LiveWorkers(); n != distWorkers {
			t.Fatalf("cycle %d: %d live workers after set-up", i, n)
		}
		if err := c.close(); err != nil {
			t.Fatalf("cycle %d: close: %v", i, err)
		}
	}
}
