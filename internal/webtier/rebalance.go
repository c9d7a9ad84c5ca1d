package webtier

import (
	"time"

	"robuststore/internal/core"
	"robuststore/internal/env"
	"robuststore/internal/shard"
)

// This file makes the web tier a host of shard's migration driver
// (shard.Migration): Rebalance boots one more Paxos group of application
// servers mid-run and the driver moves session slices to it over the
// ordered log. What the web tier contributes is its own partition unit:
//
//   - clients are the partition unit, so the freeze holds *writes of
//     moving sessions* at the proxy (requeued, not failed — the client
//     sees latency, never an error) while reads keep flowing to the
//     source group (dual-epoch routing during the handoff);
//   - because rows are created under per-group ID counters and actions
//     do not carry their session, the keyed transfer moves the rows whose
//     own partition key ("cart/N", "customer/N", "item/N") lands in a
//     moving slice. A moved session whose cart's row key did not move
//     sees one failed cart interaction after cutover and starts a fresh
//     cart (the RBE models exactly that shopper behaviour); a
//     row-addressed tier (shard.Store) migrates with zero loss.
//
// A server that receives a request for a session its group no longer
// owns answers WrongEpoch, and the proxy transparently redispatches under
// the current table (proxy.go) — the cutover race costs a hop, never a
// client error.

// Migration returns the current (or last) migration status. Simulator
// context.
func (c *Cluster) Migration() shard.MigrationStatus {
	var st shard.MigrationStatus
	if c.mig != nil {
		st = c.mig.Status()
	}
	st.Epoch = c.table.Epoch
	return st
}

// drainCap bounds how long the proxy-level drain waits for in-flight
// writes of moving sessions before fencing the source logs anyway (a
// request stuck until its 10 s timeout would otherwise hold the window
// open; the barrier still orders everything that reached a replica).
const drainCap = 3 * time.Second

// Rebalance adds one Paxos group of Servers application servers and
// live-migrates its share of the session slices to it. Must be called
// from simulator context; progress is event-driven. Calling it again
// while a migration is active panics (one epoch change at a time).
func (c *Cluster) Rebalance(opts shard.RebalanceOptions) {
	if c.cfg.Readers > 0 {
		// Reader flat indices are fixed past the voter range; a grown
		// group's servers would collide with them. Session fences are also
		// per-group log indices, which a cutover would invalidate.
		panic("webtier: Rebalance is not supported with Readers > 0")
	}
	if c.mig != nil && c.mig.Status().Active {
		panic("webtier: Rebalance while a migration is active")
	}
	m := shard.NewMigration(clusterHost{c}, c.table, opts)

	// Register and boot the new group's servers. Membership (groupIDs)
	// must be complete before any of them starts; AddNode+Restart are
	// synchronous here, the Start events run afterwards.
	newGroup := c.shards
	first := len(c.serverIDs)
	c.groupIDs = append(c.groupIDs, nil)
	for mI := 0; mI < c.cfg.Servers; mI++ {
		idx := first + mI
		c.servers = append(c.servers, nil)
		c.auto = append(c.auto, true)
		c.crashedAt = append(c.crashedAt, time.Time{})
		c.grayErr = append(c.grayErr, 0)
		c.graySlow = append(c.graySlow, 0)
		id := c.sim.AddNode(func() env.Node {
			s := &Server{c: c, idx: idx, group: newGroup}
			c.servers[idx] = s
			return s
		})
		c.serverIDs = append(c.serverIDs, id)
		c.groupIDs[newGroup] = append(c.groupIDs[newGroup], id)
	}
	c.shards++
	c.readsServed = append(c.readsServed, 0)
	c.fenceWaits = append(c.fenceWaits, 0)
	c.staleServes = append(c.staleServes, 0)
	c.txnCommits = append(c.txnCommits, 0)
	c.txnAborts = append(c.txnAborts, 0)
	c.txnBlockedNs = append(c.txnBlockedNs, 0)
	if c.proxy != nil {
		c.proxy.grow(len(c.serverIDs), c.shards)
	}
	for _, id := range c.groupIDs[newGroup] {
		c.sim.Restart(id)
	}
	c.mig = m
	m.Start()
}

// clusterHost is the web tier's side of a migration. All of it runs on
// the simulator loop.
type clusterHost struct{ c *Cluster }

// Pick selects a submission target in group g, preferring the consensus
// leader.
func (h clusterHost) Pick(g int) *core.Replica {
	c := h.c
	var fallback *core.Replica
	for i := g * c.cfg.Servers; i < (g+1)*c.cfg.Servers; i++ {
		if !c.accepting(i) {
			continue
		}
		r := c.servers[i].replica
		if r.LeaderHint() {
			return r
		}
		if fallback == nil {
			fallback = r
		}
	}
	return fallback
}

func (h clusterHost) After(d time.Duration, fn func()) { h.c.sim.After(d, fn) }

func (h clusterHost) Now() time.Time { return h.c.sim.Now() }

// AwaitBoot waits for the whole new group to come up (members
// operational, leader elected).
func (h clusterHost) AwaitBoot(g int, booted func()) {
	c := h.c
	ready := 0
	var leader bool
	for i := g * c.cfg.Servers; i < (g+1)*c.cfg.Servers; i++ {
		if c.accepting(i) {
			ready++
			if c.servers[i].replica.LeaderHint() {
				leader = true
			}
		}
	}
	if ready == c.cfg.Servers && leader {
		booted()
		return
	}
	c.sim.After(50*time.Millisecond, func() { h.AwaitBoot(g, booted) })
}

// AwaitDrain waits until no write of a moving session is in flight at the
// proxy, capped by drainCap.
func (h clusterHost) AwaitDrain(_ *shard.Migration, drained func()) {
	c := h.c
	from := c.sim.Now()
	var poll func()
	poll = func() {
		inflight := 0
		if p := c.proxy; p != nil {
			for _, r := range p.outstanding {
				if r.req.Kind.IsWrite() && c.sessionFrozen(r.req.Client) {
					inflight++
				}
			}
		}
		if inflight > 0 && c.sim.Now().Sub(from) < drainCap {
			c.sim.After(10*time.Millisecond, poll)
			return
		}
		drained()
	}
	poll()
}

// Publish switches session routing to the next epoch: routing re-reads
// the table on every dispatch, so moving sessions flow to the new group
// from the next event on; their requeued writes drain there too.
func (h clusterHost) Publish(next shard.RoutingTable) { h.c.table = next }

// Cleanup finishes on the next event. Unlike shard.Store, the web tier
// issues no PartitionDrop: sessions, not rows, are its partition unit,
// and rows are shared across session slices — every group's store
// starts from the full population clone, and any of a group's sessions
// may read any population row. A drop keyed by moved row slices would
// delete rows the source group's remaining sessions still serve. The
// source copies of moved rows simply stop being written (their writers
// now commit on the new group), the same bounded divergence the
// soft-replicated catalog already has.
func (h clusterHost) Cleanup(_ *shard.Migration, done func()) { h.c.sim.After(0, done) }
