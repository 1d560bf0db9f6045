package rdd

import "yafim/internal/chaos"

// WithChaos attaches a seed-driven fault plan to the context: task attempts
// fail with the plan's probability, shuffle fetches lose map outputs,
// straggler nodes run slow, and the planned node crash fires at its virtual
// time, losing the node's cached partitions and shuffle output. Mitigation
// defaults to chaos.Defaults() — speculative execution, failure-count
// blacklisting and DFS re-replication — override it with WithResilience.
// The plan is validated by NewContext.
func WithChaos(plan *chaos.Plan) Option {
	return func(c *Context) { c.drv.SetChaos(plan) }
}

// WithResilience overrides the mitigation configuration used when a chaos
// plan is attached. The zero Resilience disables speculation, blacklisting
// and re-replication while keeping fault injection active.
func WithResilience(r chaos.Resilience) Option {
	return func(c *Context) { c.drv.SetResilience(r) }
}

// ChaosPlan returns the attached fault plan (nil when chaos is disabled).
func (c *Context) ChaosPlan() *chaos.Plan { return c.drv.ChaosPlan() }
