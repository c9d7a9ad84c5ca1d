package webtier

import (
	"io"
	"time"

	"robuststore/internal/core"
	"robuststore/internal/env"
	"robuststore/internal/paxos"
	"robuststore/internal/rbe"
	"robuststore/internal/shard"
	"robuststore/internal/sim"
	"robuststore/internal/tpcw"
)

// Config parameterizes a simulated RobustStore deployment: k server
// replicas plus one proxy node on one switch (paper Figure 2), optionally
// scaled out across several independent Paxos groups (shards).
type Config struct {
	// Servers is the replication degree of each group (paper: 4–12).
	Servers int

	// Shards partitions the deployment across this many independent
	// Paxos groups of Servers replicas each. The proxy routes each
	// client session to its owning group (internal/shard key hash), so
	// every group serves a disjoint slice of the client population over
	// its own store partition. Default 1 — the paper's single-group
	// deployment, bit-for-bit unchanged.
	Shards int

	// Readers boots this many learner-backed read-only servers per group:
	// full application servers whose replica is a non-voting Paxos
	// learner — it applies the ordered log and checkpoints but never
	// votes, proposes or counts toward quorum, so added readers cost no
	// WAL-quorum latency. The proxy balances reads per-request across
	// voters + readers and attaches each session's commit-index fence
	// (read-your-writes); writes still go to voters only. Default 0 —
	// reads then rotate across the group's voters alone, still fenced,
	// so non-leader voters serve read-your-writes-safe reads too.
	Readers int

	// FastPaxos enables Treplica's fast mode.
	FastPaxos bool

	// Store builds the populated bookstore for a (re)starting server.
	Store func() *tpcw.Store

	// Cal is the hardware performance model.
	Cal Calibration

	// CheckpointInterval and RetainInstances configure Treplica
	// checkpointing (see core.Config).
	CheckpointInterval time.Duration
	RetainInstances    int64

	// FullCheckpoints forces monolithic full-state checkpoints instead
	// of the incremental delta-chain pipeline the bookstore machine
	// supports (the comparison baseline of exp.CheckpointCurve; see
	// core.Config.FullCheckpoints).
	FullCheckpoints bool

	// Paxos carries engine tuning overrides.
	Paxos paxos.Config

	// SequentialRecovery disables Treplica's parallel recovery
	// (ablation; see core.Config).
	SequentialRecovery bool

	// Sim parameters.
	Seed uint64
	Net  sim.NetConfig
	Disk sim.DiskConfig

	// DebugLog, when non-nil, receives node Logf output (protocol-level
	// election/recovery tracing; see sim.Config.DebugLog).
	DebugLog io.Writer

	// OnRecovered reports a server that finished post-crash
	// re-synchronization.
	OnRecovered func(server int, at time.Time)
}

// Cluster wires servers, proxy, watchdog and faultload over a simulator.
// Server indices are flat and group-major: server i belongs to group
// i/Servers as its member i%Servers.
//
// Session routing is epoch-versioned state (shard.RoutingTable), not
// arithmetic: the epoch-0 table reproduces the historical hash%N mapping
// bit for bit, and Rebalance (rebalance.go) adds a group mid-run by
// live-migrating session slices to it and publishing the next epoch.
type Cluster struct {
	cfg    Config
	sim    *sim.Sim
	table  shard.RoutingTable // current routing epoch (sim-loop confined)
	shards int                // current group count (grows on Rebalance)

	serverIDs []env.NodeID   // flat, group-major; readers appended after all voters
	groupIDs  [][]env.NodeID // per-group voting member IDs (Paxos membership)
	readerIDs [][]env.NodeID // per-group learner node IDs (empty without Readers)
	voters    int            // flat index floor of the reader range (Shards×Servers at build)
	proxyID   env.NodeID
	servers   []*Server
	proxy     *Proxy

	// FailDebug, when non-nil, accumulates write-failure reasons.
	FailDebug map[string]int

	auto          []bool // watchdog auto-restart enabled per server
	faults        int
	interventions int
	crashedAt     []time.Time

	// Checkpoint I/O accounting across all servers (sim-loop confined;
	// read after the run): writes counts checkpoints taken, bytes their
	// written sizes — full images or delta layers.
	ckptWrites int64
	ckptBytes  int64

	// Write-admission accounting across all servers (sim-loop confined):
	// writes paced by an AdmissionSlowdown grade, hold steps spent at
	// the tier boundary under AdmissionStop, and holds that exhausted
	// their deadline and were shed.
	admSlowed  int64
	admHeld    int64
	admDropped int64

	// Staleness accounting per group (sim-loop confined): reads served to
	// completion, fenced reads that had to wait for the serving replica
	// to catch up to the session's commit index, and fence waits that
	// expired into a TooStale fallback.
	readsServed []int64
	fenceWaits  []int64
	staleServes []int64

	// Cross-shard transaction accounting per group (sim-loop confined):
	// branch outcomes ordered in the group's log (counted exactly once
	// per group per transaction, on the record that made it terminal) and
	// time ordinary writes spent held behind a prepared branch's blocked
	// keys.
	txnCommits   []int64
	txnAborts    []int64
	txnBlockedNs []int64

	// Gray-failure state per server (sim-loop confined): a grayed server
	// keeps answering probes — its probe path is untouched — while
	// erroring a fraction of real requests (grayErr) or slow-walking
	// their service times by a multiplier (graySlow). Like a disk
	// degradation, gray failure belongs to the process environment (a
	// wedged NIC queue, a sick dependency) and survives crash/restart
	// until restored.
	grayErr  []float64
	graySlow []float64

	// fenceViolations counts fenced reads served by a replica whose
	// applied index was still below the fence — impossible by
	// construction when ReadAt and the fence plumbing are correct, so
	// any non-zero value is a read-your-writes regression. Checked at
	// serve time on every fenced read; tests assert it stays zero
	// across the seeded fault suite.
	fenceViolations int64

	mig *shard.Migration // non-nil once Rebalance has been called
}

// NewCluster builds the deployment. Call Start before driving load.
func NewCluster(cfg Config) *Cluster {
	if cfg.Servers <= 0 {
		panic("webtier: Config.Servers must be positive")
	}
	if cfg.Store == nil {
		panic("webtier: Config.Store is required")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Cal.PageSize == 0 {
		cfg.Cal = DefaultCalibration()
	}
	if cfg.Readers < 0 {
		cfg.Readers = 0
	}
	voters := cfg.Shards * cfg.Servers
	total := voters + cfg.Shards*cfg.Readers
	c := &Cluster{
		cfg:          cfg,
		table:        shard.NewRoutingTable(cfg.Shards),
		shards:       cfg.Shards,
		voters:       voters,
		servers:      make([]*Server, total),
		groupIDs:     make([][]env.NodeID, cfg.Shards),
		readerIDs:    make([][]env.NodeID, cfg.Shards),
		auto:         make([]bool, total),
		crashedAt:    make([]time.Time, total),
		readsServed:  make([]int64, cfg.Shards),
		fenceWaits:   make([]int64, cfg.Shards),
		staleServes:  make([]int64, cfg.Shards),
		txnCommits:   make([]int64, cfg.Shards),
		txnAborts:    make([]int64, cfg.Shards),
		txnBlockedNs: make([]int64, cfg.Shards),
		grayErr:      make([]float64, total),
		graySlow:     make([]float64, total),
	}
	c.sim = sim.New(sim.Config{Seed: cfg.Seed, Net: cfg.Net, Disk: cfg.Disk, DebugLog: cfg.DebugLog})
	for i := 0; i < voters; i++ {
		idx, group := i, i/cfg.Servers
		c.auto[i] = true
		id := c.sim.AddNode(func() env.Node {
			s := &Server{c: c, idx: idx, group: group}
			c.servers[idx] = s
			return s
		})
		c.serverIDs = append(c.serverIDs, id)
		c.groupIDs[group] = append(c.groupIDs[group], id)
	}
	// Learner-backed readers live past the voter range: reader j of group
	// g sits at flat index voters + g*Readers + j. They are full
	// application servers (probes, watchdog restarts, checkpoints) whose
	// consensus engine only listens.
	for i := voters; i < total; i++ {
		idx := i
		group := (i - voters) / cfg.Readers
		c.auto[i] = true
		id := c.sim.AddNode(func() env.Node {
			s := &Server{c: c, idx: idx, group: group, learner: true}
			c.servers[idx] = s
			return s
		})
		c.serverIDs = append(c.serverIDs, id)
		c.readerIDs[group] = append(c.readerIDs[group], id)
	}
	c.proxyID = c.sim.AddNode(func() env.Node {
		p := &Proxy{c: c}
		c.proxy = p
		return p
	})
	return c
}

// Sim exposes the simulator for scheduling workload and faultloads.
func (c *Cluster) Sim() *sim.Sim { return c.sim }

// Shards returns the current Paxos group count (grows on Rebalance).
func (c *Cluster) Shards() int { return c.shards }

// Table returns the currently published routing table.
func (c *Cluster) Table() shard.RoutingTable { return c.table }

// TotalServers returns the flat server count (Shards × Servers).
func (c *Cluster) TotalServers() int { return len(c.serverIDs) }

// GroupOf returns the group serving a client's session under the current
// routing epoch. The mapping is tpcw.SessionKey's, so the web tier, the
// live command and any shard.Store keyed by session agree on placement.
func (c *Cluster) GroupOf(client int64) int {
	return c.table.Group(tpcw.SessionKey(client))
}

// sessionFrozen reports whether a client's session slice is mid-handoff:
// its writes must wait for the next routing epoch (the proxy requeues
// them; reads keep flowing to the source group).
func (c *Cluster) sessionFrozen(client int64) bool {
	return c.mig != nil && c.mig.Frozen(c.table.SliceOf(tpcw.SessionKey(client)))
}

// Start boots all nodes and the watchdogs.
func (c *Cluster) Start() {
	c.sim.StartAll()
	c.sim.After(watchdogInterval, c.watchdog)
}

// watchdogInterval is how often each node's watchdog checks its
// application server (paper §5.1: restart "as soon as it detects the
// crash").
const watchdogInterval = time.Second

// watchdog re-instantiates crashed application servers automatically
// (paper §5.1), unless auto-restart was disabled for the delayed-recovery
// faultload.
func (c *Cluster) watchdog() {
	for i, id := range c.serverIDs {
		if !c.sim.Alive(id) && c.auto[i] {
			c.sim.Restart(id)
		}
	}
	c.sim.After(watchdogInterval, c.watchdog)
}

// Crash kills server i abruptly (OS-level kill, §5.1). In-flight requests
// there surface as client errors after the connection-reset delay.
func (c *Cluster) Crash(i int) {
	if !c.sim.Alive(c.serverIDs[i]) {
		return
	}
	c.faults++
	c.crashedAt[i] = c.sim.Now()
	c.sim.Crash(c.serverIDs[i])
	c.sim.After(time.Millisecond, func() {
		if c.proxy != nil {
			c.proxy.onServerReset(i)
		}
	})
}

// SetAutoRestart enables or disables the watchdog for server i.
func (c *Cluster) SetAutoRestart(i int, auto bool) { c.auto[i] = auto }

// PartitionServers isolates the given servers (flat indices) from the
// rest of the cluster — the proxy included, so isolating a whole group
// severs its client slice's path entirely. dir selects symmetric
// isolation or one-way loss relative to the victims. The returned handle
// heals exactly this partition; overlapping partitions compose. Counts
// one injected fault.
func (c *Cluster) PartitionServers(dir env.LinkDir, servers ...int) *sim.BlockHandle {
	ids := make([]env.NodeID, len(servers))
	for k, i := range servers {
		ids[k] = c.serverIDs[i]
	}
	c.faults++
	return c.sim.PartitionDir(dir, ids...)
}

// IsolateFromGroup severs both directions between each given server
// (flat index) and the other members — voters and readers — of its own
// group, leaving the proxy path and every other link intact. A learner
// reader cut off this way keeps serving reads while its applied log
// falls arbitrarily far behind: the staleness worst case the read
// fences must bound. Counts one injected fault.
func (c *Cluster) IsolateFromGroup(servers ...int) {
	c.faults++
	c.setGroupLinks(true, servers)
}

// ReconnectToGroup restores the links severed by IsolateFromGroup.
func (c *Cluster) ReconnectToGroup(servers ...int) {
	c.setGroupLinks(false, servers)
}

func (c *Cluster) setGroupLinks(blocked bool, servers []int) {
	for _, i := range servers {
		g := c.groupOfServer(i)
		vid := c.serverIDs[i]
		for _, peers := range [][]env.NodeID{c.groupIDs[g], c.readerIDs[g]} {
			for _, pid := range peers {
				if pid == vid {
					continue
				}
				c.sim.SetLink(vid, pid, blocked)
				c.sim.SetLink(pid, vid, blocked)
			}
		}
	}
}

// DegradeDisk slows server i's disk live by factor (seek × factor,
// bandwidth ÷ factor) — the failing-disk straggler. The degradation
// survives crash/restart of the server until RestoreDisk. Counts one
// injected fault.
func (c *Cluster) DegradeDisk(i int, factor float64) {
	c.faults++
	c.sim.SetDiskSlowdown(c.serverIDs[i], factor)
}

// SetDiskFactor retunes server i's disk factor without counting a fault —
// the bookkeeping half of composing overlapping degradations (the fault
// was counted when its event fired).
func (c *Cluster) SetDiskFactor(i int, factor float64) {
	c.sim.SetDiskSlowdown(c.serverIDs[i], factor)
}

// RestoreDisk returns server i's disk to its configured performance.
func (c *Cluster) RestoreDisk(i int) {
	c.sim.SetDiskSlowdown(c.serverIDs[i], 1)
}

// DegradeLinks makes every link between the given victim servers (flat
// indices) and the rest of the cluster — the proxy included, mirroring
// PartitionServers — flaky: each crossing message drops with probability
// rate, in the directions dir selects relative to the victims. Counts one
// injected fault.
func (c *Cluster) DegradeLinks(dir env.LinkDir, rate float64, servers ...int) {
	c.faults++
	c.SetLinkRate(dir, rate, servers...)
}

// SetLinkRate applies (or, at rate 0, clears) the per-link loss without
// counting a fault — the bookkeeping half of superseding an open loss
// window (the fault was counted when its event fired).
func (c *Cluster) SetLinkRate(dir env.LinkDir, rate float64, servers ...int) {
	victims := make(map[env.NodeID]bool, len(servers))
	for _, i := range servers {
		victims[c.serverIDs[i]] = true
	}
	for _, i := range servers {
		a := c.serverIDs[i]
		for _, b := range c.sim.Peers() {
			if victims[b] {
				continue
			}
			if dir == env.LinkBothWays || dir == env.LinkOutboundOnly {
				c.sim.SetLinkLoss(a, b, rate)
			}
			if dir == env.LinkBothWays || dir == env.LinkInboundOnly {
				c.sim.SetLinkLoss(b, a, rate)
			}
		}
	}
}

// RestoreLinks clears the loss on every link between the victim servers
// and the rest of the cluster, in both directions.
func (c *Cluster) RestoreLinks(servers ...int) {
	c.SetLinkRate(env.LinkBothWays, 0, servers...)
}

// DegradeLinkDelay inflates the latency of every link between the given
// victim servers and the rest of the cluster — the proxy included — by
// factor, in the directions dir selects relative to the victims. Unlike
// loss, every message still arrives; it just crawls. Counts one injected
// fault.
func (c *Cluster) DegradeLinkDelay(dir env.LinkDir, factor float64, servers ...int) {
	c.faults++
	c.SetLinkDelayFactor(dir, factor, servers...)
}

// SetLinkDelayFactor applies (or, at factor ≤ 1, clears) the per-link
// latency inflation without counting a fault — the bookkeeping half of
// superseding an open delay window.
func (c *Cluster) SetLinkDelayFactor(dir env.LinkDir, factor float64, servers ...int) {
	victims := make(map[env.NodeID]bool, len(servers))
	for _, i := range servers {
		victims[c.serverIDs[i]] = true
	}
	for _, i := range servers {
		a := c.serverIDs[i]
		for _, b := range c.sim.Peers() {
			if victims[b] {
				continue
			}
			if dir == env.LinkBothWays || dir == env.LinkOutboundOnly {
				c.sim.SetLinkDelay(a, b, factor)
			}
			if dir == env.LinkBothWays || dir == env.LinkInboundOnly {
				c.sim.SetLinkDelay(b, a, factor)
			}
		}
	}
}

// RestoreLinkDelay clears the latency inflation on every link between the
// victim servers and the rest of the cluster, in both directions.
func (c *Cluster) RestoreLinkDelay(servers ...int) {
	c.SetLinkDelayFactor(env.LinkBothWays, 1, servers...)
}

// GrayFail puts server i into gray-failure mode: it keeps answering
// probes (its probe path never touches the request machinery) while real
// requests suffer. factor < 1 is an error rate — that fraction of
// requests fail fast with a server-side error; factor ≥ 1 is a slow-walk
// multiplier on request service times. The prober alone cannot see this
// fault, which is the point. Counts one injected fault.
func (c *Cluster) GrayFail(i int, factor float64) {
	c.faults++
	c.SetGray(i, factor)
}

// SetGray applies (or, at factor 0, clears) server i's gray-failure mode
// without counting a fault — the bookkeeping half of superseding an open
// gray window.
func (c *Cluster) SetGray(i int, factor float64) {
	switch {
	case factor <= 0:
		c.grayErr[i], c.graySlow[i] = 0, 0
	case factor < 1:
		c.grayErr[i], c.graySlow[i] = factor, 0
	default:
		c.grayErr[i], c.graySlow[i] = 0, factor
	}
}

// GrayRestore returns server i to healthy request service.
func (c *Cluster) GrayRestore(i int) { c.SetGray(i, 0) }

// LeaderOf returns the flat index of the server currently leading group
// g's consensus, or -1 while the group has no live leader. Call from
// simulator context (the leader is executor-confined state).
func (c *Cluster) LeaderOf(g int) int {
	for m := 0; m < c.cfg.Servers; m++ {
		i := g*c.cfg.Servers + m
		if !c.sim.Alive(c.serverIDs[i]) {
			continue
		}
		s := c.servers[i]
		if s != nil && s.replica != nil && s.replica.IsLeader() {
			return i
		}
	}
	return -1
}

// ManualRecover restarts server i by operator intervention (the delayed
// recovery of §5.6) and counts it against autonomy.
func (c *Cluster) ManualRecover(i int) {
	c.interventions++
	c.auto[i] = true
	c.sim.Restart(c.serverIDs[i])
}

// CrashedAt returns when server i last crashed.
func (c *Cluster) CrashedAt(i int) time.Time { return c.crashedAt[i] }

// Faults returns injected fault count; Interventions the number of human
// interventions (autonomy measure).
func (c *Cluster) Faults() int        { return c.faults }
func (c *Cluster) Interventions() int { return c.interventions }

// CheckpointIO returns the cumulative checkpoint count and bytes written
// across all servers (the steady-state disk cost the incremental
// pipeline shrinks). Read it outside the simulation loop's execution.
func (c *Cluster) CheckpointIO() (writes, bytes int64) {
	return c.ckptWrites, c.ckptBytes
}

// AdmissionStats returns cumulative write-admission activity: writes
// paced under slowdown, writes held under stop, and holds shed at the
// deadline. Read it outside the simulation loop's execution.
func (c *Cluster) AdmissionStats() (slowed, held, dropped int64) {
	return c.admSlowed, c.admHeld, c.admDropped
}

// ReadStats returns group g's cumulative read-path staleness accounting:
// reads served to completion by the group's voters + readers, fenced
// reads that had to wait for the serving replica, and fence waits that
// expired into a TooStale fallback. Read it outside the simulation
// loop's execution.
func (c *Cluster) ReadStats(g int) (served, fenceWaits, staleServes int64) {
	if g < 0 || g >= len(c.readsServed) {
		return 0, 0, 0
	}
	return c.readsServed[g], c.fenceWaits[g], c.staleServes[g]
}

// TxnStats returns group g's cumulative cross-shard transaction
// accounting: branch commits and aborts ordered in the group's log, and
// the total time ordinary writes spent held behind prepared branches'
// blocked keys. Read it outside the simulation loop's execution.
func (c *Cluster) TxnStats(g int) (commits, aborts int64, blocked time.Duration) {
	if g < 0 || g >= len(c.txnCommits) {
		return 0, 0, 0
	}
	return c.txnCommits[g], c.txnAborts[g], time.Duration(c.txnBlockedNs[g])
}

// FenceViolations returns the number of fenced reads served below their
// fence — always zero unless the read-your-writes machinery regressed.
func (c *Cluster) FenceViolations() int64 { return c.fenceViolations }

// Readers returns the configured learner-backed readers per group.
func (c *Cluster) Readers() int { return c.cfg.Readers }

// ReaderIndex returns the flat server index of reader j of group g.
func (c *Cluster) ReaderIndex(g, j int) int {
	return c.voters + g*c.cfg.Readers + j
}

// isReader reports whether flat index i is a learner-backed reader, and
// readerGroup maps it back to its group.
func (c *Cluster) isReader(i int) bool { return c.cfg.Readers > 0 && i >= c.voters }

func (c *Cluster) readerGroup(i int) int { return (i - c.voters) / c.cfg.Readers }

// groupOfServer maps any flat server index — voter or reader — to its
// Paxos group.
func (c *Cluster) groupOfServer(i int) int {
	if c.isReader(i) {
		return c.readerGroup(i)
	}
	return i / c.cfg.Servers
}

// ProxyStats returns error-cause diagnostics.
func (c *Cluster) ProxyStats() ProxyStats {
	if c.proxy == nil {
		return ProxyStats{}
	}
	return c.proxy.Stats
}

// Downtime returns total full-outage time observed at the proxy.
func (c *Cluster) Downtime() time.Duration {
	if c.proxy == nil {
		return 0
	}
	return c.proxy.Downtime()
}

// GroupDowntimes returns each group's cumulative outage time observed at
// the proxy (the per-slice availability inputs).
func (c *Cluster) GroupDowntimes() []time.Duration {
	if c.proxy == nil {
		return make([]time.Duration, c.shards)
	}
	return c.proxy.GroupDowntimes()
}

// Frontend returns the client-facing interface (the proxy).
func (c *Cluster) Frontend() rbe.Frontend { return frontend{c: c} }

type frontend struct{ c *Cluster }

func (f frontend) Do(req rbe.Request, done func(rbe.Response)) {
	f.c.proxy.Do(req, done)
}

// CheckpointAll forces a durable checkpoint on every live server and calls
// done when all have completed — used to install the initial population
// checkpoint before the measurement interval. Targets are collected before
// any checkpoint starts because a replica with nothing to checkpoint
// completes synchronously, which would otherwise fire done early.
//
// Completion is crash-aware: a server that dies mid-checkpoint loses its
// storage completion with the rest of its volatile state, so a sweep
// counts dead or replaced incarnations as finished rather than letting
// done hang forever.
func (c *Cluster) CheckpointAll(done func()) {
	type target struct {
		idx int
		r   *core.Replica
	}
	var targets []target
	for i, id := range c.serverIDs {
		if c.sim.Alive(id) {
			targets = append(targets, target{idx: i, r: c.servers[i].replica})
		}
	}
	reps := make([]*core.Replica, len(targets))
	for k, t := range targets {
		reps[k] = t.r
	}
	core.CheckpointFanout(reps,
		func(k int) bool {
			t := targets[k]
			return !c.sim.Alive(c.serverIDs[t.idx]) || c.servers[t.idx].replica != t.r
		},
		c.sim.After, done)
}

// accepting reports whether server i accepts TCP connections: the process
// is running and its HTTP listener is up (application state loaded). A
// restarting server refuses connections until then, which the proxy
// treats as an instant dispatch failure, not a client error.
func (c *Cluster) accepting(i int) bool {
	if !c.sim.Alive(c.serverIDs[i]) {
		return false
	}
	s := c.servers[i]
	return s != nil && s.replica != nil && s.replica.Ready()
}

// Server returns the current incarnation of server i (nil while crashed).
func (c *Cluster) Server(i int) *Server {
	if !c.sim.Alive(c.serverIDs[i]) {
		return nil
	}
	return c.servers[i]
}

// Store returns server i's bookstore state (for consistency checks).
func (c *Cluster) Store(i int) *tpcw.Store {
	s := c.Server(i)
	if s == nil {
		return nil
	}
	return s.store
}

// Replica returns server i's Treplica replica (nil while crashed).
func (c *Cluster) Replica(i int) *core.Replica {
	s := c.Server(i)
	if s == nil {
		return nil
	}
	return s.replica
}
