package dfs

import (
	"bytes"
	"testing"

	"yafim/internal/chaos"
	"yafim/internal/obs"
	"yafim/internal/sim"
)

func TestKillNodeReReplicates(t *testing.T) {
	rec := obs.New()
	fs := New(4, WithBlockSize(10), WithReplication(3))
	fs.SetRecorder(rec)
	data := bytes.Repeat([]byte("x"), 35) // 4 blocks
	if err := fs.WriteFile("/a", data, nil); err != nil {
		t.Fatal(err)
	}

	before := nodeUsage(fs)
	if before[1] == 0 {
		t.Fatal("test setup: node 1 holds no replicas")
	}

	lost, repairedBytes := fs.KillNode(1, true)
	if lost == 0 {
		t.Fatal("KillNode reported no lost blocks")
	}
	if repairedBytes == 0 {
		t.Fatal("KillNode re-replicated no bytes")
	}

	// Every block must be back at full replication, with no replica on the
	// dead node.
	splits, err := fs.Splits("/a")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range splits {
		if len(s.Locations) != 3 {
			t.Fatalf("block at %d has %d replicas after repair, want 3", s.Offset, len(s.Locations))
		}
		for _, n := range s.Locations {
			if n == 1 {
				t.Fatalf("block at %d still has a replica on the dead node", s.Offset)
			}
		}
	}
	if got := nodeUsage(fs)[1]; got != 0 {
		t.Fatalf("dead node still charged with %d bytes", got)
	}
	if c := rec.Counters(); c.ReReplicatedBlocks != int64(lost) {
		t.Fatalf("ReReplicatedBlocks = %d, want %d", c.ReReplicatedBlocks, lost)
	}

	// Contents are intact.
	got, err := fs.ReadFile("/a", nil)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("file corrupted after node loss: err=%v", err)
	}
}

func TestKillNodeWithoutReReplication(t *testing.T) {
	fs := New(3, WithBlockSize(8), WithReplication(2))
	if err := fs.WriteFile("/a", bytes.Repeat([]byte("y"), 20), nil); err != nil {
		t.Fatal(err)
	}
	lost, repaired := fs.KillNode(0, false)
	if lost == 0 {
		t.Fatal("no blocks lost a replica")
	}
	if repaired != 0 {
		t.Fatalf("re-replicated %d bytes with rereplicate=false", repaired)
	}
	splits, _ := fs.Splits("/a")
	under := 0
	for _, s := range splits {
		if len(s.Locations) < 2 {
			under++
		}
	}
	if under != lost {
		t.Fatalf("under-replicated blocks %d, want %d", under, lost)
	}
	// Data still readable from surviving replicas.
	if _, err := fs.ReadFile("/a", nil); err != nil {
		t.Fatalf("read after unrepaired node loss: %v", err)
	}
}

func TestKillNodeIdempotentAndDeterministic(t *testing.T) {
	build := func() *FileSystem {
		fs := New(5, WithBlockSize(7), WithReplication(3))
		fs.WriteFile("/b", bytes.Repeat([]byte("b"), 30), nil)
		fs.WriteFile("/a", bytes.Repeat([]byte("a"), 30), nil)
		return fs
	}
	fs1, fs2 := build(), build()
	fs1.KillNode(2, true)
	fs2.KillNode(2, true)
	if lost, rb := fs1.KillNode(2, true); lost != 0 || rb != 0 {
		t.Fatalf("second kill of the same node did work: %d blocks, %d bytes", lost, rb)
	}
	for _, p := range []string{"/a", "/b"} {
		s1, _ := fs1.Splits(p)
		s2, _ := fs2.Splits(p)
		for i := range s1 {
			if len(s1[i].Locations) != len(s2[i].Locations) {
				t.Fatalf("%s block %d: replica counts differ", p, i)
			}
			for j := range s1[i].Locations {
				if s1[i].Locations[j] != s2[i].Locations[j] {
					t.Fatalf("%s block %d: replica placement not deterministic", p, i)
				}
			}
		}
	}
	if !fs1.dead[2] || fs1.dead[0] {
		t.Fatal("dead-node set wrong after kill")
	}
}

func TestWritesAvoidDeadNodes(t *testing.T) {
	fs := New(3, WithBlockSize(16), WithReplication(3))
	fs.KillNode(1, true)
	if err := fs.WriteFile("/new", bytes.Repeat([]byte("z"), 40), nil); err != nil {
		t.Fatal(err)
	}
	splits, _ := fs.Splits("/new")
	for _, s := range splits {
		// Replication clamps to the 2 surviving nodes.
		if len(s.Locations) != 2 {
			t.Fatalf("new block has %d replicas, want 2 (survivors)", len(s.Locations))
		}
		for _, n := range s.Locations {
			if n == 1 {
				t.Fatal("new block placed on a dead node")
			}
		}
	}
}

func TestBlockReadFailureChargesRetry(t *testing.T) {
	rec := obs.New()
	fs := New(3, WithBlockSize(64), WithReplication(2))
	fs.SetRecorder(rec)
	data := bytes.Repeat([]byte("r"), 256)
	fs.WriteFile("/a", data, nil)

	// Probability 1: every read's first replica fails and is retried
	// remotely, charging the range's bytes to the network on top of disk.
	fs.SetChaos(&chaos.Plan{Seed: 1, BlockReadFailProb: 1})
	led := new(sim.Ledger)
	got, err := fs.ReadRange("/a", 0, 100, led)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[:100]) {
		t.Fatal("injected read failure corrupted data")
	}
	c := led.Total()
	if c.DiskRead != 100 || c.Net != 100 {
		t.Fatalf("cost = %+v, want 100 disk + 100 net", c)
	}
	if rec.Counters().BlockReadRetries != 1 {
		t.Fatalf("BlockReadRetries = %d, want 1", rec.Counters().BlockReadRetries)
	}

	// Disabled plan: no net charge.
	fs.SetChaos(nil)
	led2 := new(sim.Ledger)
	fs.ReadRange("/a", 0, 100, led2)
	if c2 := led2.Total(); c2.Net != 0 {
		t.Fatalf("nil plan still charged net: %+v", c2)
	}
}
