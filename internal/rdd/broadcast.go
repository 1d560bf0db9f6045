package rdd

import (
	"math"
	"time"

	"yafim/internal/cluster"
	"yafim/internal/sim"
)

// Broadcast is a read-only variable distributed to every worker node once,
// rather than shipped with every task — the optimisation §IV-C of the paper
// relies on to stop the master's bandwidth capping task launch rate.
//
// With broadcasting enabled (the default), creation charges a one-time
// tree-structured distribution to the next job's overhead and tasks acquire
// the value for free. Under WithoutBroadcast, creation is free but every
// task that acquires the value pays to ship it, modelling Spark's naive
// closure-capture default.
type Broadcast[T any] struct {
	ctx   *Context
	value T
	bytes int64
}

// NewBroadcast registers v, whose serialized size is bytes, for distribution
// to the cluster.
func NewBroadcast[T any](ctx *Context, v T, bytes int64) *Broadcast[T] {
	if bytes < 0 {
		bytes = 0
	}
	b := &Broadcast[T]{ctx: ctx, value: v, bytes: bytes}
	if !ctx.naiveShipping {
		ctx.drv.AddOverhead(broadcastTime(ctx.cfg, bytes))
		ctx.rec.AddBroadcastBytes(bytes)
	}
	return b
}

// Acquire returns the value from within a task. Under naive shipping the
// task's ledger is charged for receiving the payload and the driver's
// serialized uplink (the master-bandwidth bottleneck of §IV-C) is charged
// at job level; under broadcasting the access is free.
func (b *Broadcast[T]) Acquire(led *sim.Ledger) T {
	if b.ctx.naiveShipping {
		if led != nil {
			led.AddNet(b.bytes)
		}
		b.ctx.addShipBytes(b.bytes)
		b.ctx.rec.AddNaiveShipBytes(b.bytes)
	}
	return b.value
}

// broadcastTime models a binary-tree distribution: each doubling round
// forwards the payload once, so all n nodes hold it after ceil(log2(n+1))
// sequential transfers.
func broadcastTime(cfg cluster.Config, bytes int64) time.Duration {
	if bytes == 0 {
		return 0
	}
	rounds := math.Ceil(math.Log2(float64(cfg.Nodes) + 1))
	secs := float64(bytes) / cfg.NetBWPerSec * rounds
	return time.Duration(secs * float64(time.Second))
}

// transferTime is the time to move bytes across one network link.
func transferTime(cfg cluster.Config, bytes int64) time.Duration {
	secs := float64(bytes) / cfg.NetBWPerSec
	return time.Duration(secs * float64(time.Second))
}
