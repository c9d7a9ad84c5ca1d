// Package sim is a deterministic discrete-event simulator that substitutes
// for the paper's 18-node cluster (§5.1). It runs the real protocol code
// (internal/paxos, internal/core, internal/webtier) on virtual time with
// calibrated network, disk and CPU resource models, so experiments covering
// 600 s of cluster time execute in seconds and are exactly reproducible
// from a root seed.
//
// Crash semantics follow the paper's faultload: killing a node destroys all
// volatile state (the node object, its timers, its in-flight work) while
// its simulated stable storage survives; restarting constructs a fresh node
// through its factory and runs the real recovery path.
package sim

import (
	"fmt"
	"io"
	"time"

	"robuststore/internal/env"
	"robuststore/internal/xrand"
)

// Config parameterizes a simulation.
type Config struct {
	// Seed is the root seed; every random stream derives from it.
	Seed uint64

	// Net models the cluster interconnect (defaults: 1 Gbps switched
	// Ethernet).
	Net NetConfig

	// Disk models each node's local disk (defaults: a 7200 rpm SATA
	// disk, per §5.1).
	Disk DiskConfig

	// DebugLog, when non-nil, receives node Logf output.
	DebugLog io.Writer
}

// Sim is the event loop and cluster container. It is single-threaded: all
// node callbacks run inside Run*, one at a time, in deterministic order.
type Sim struct {
	cfg     Config
	now     time.Time
	queue   eventQueue
	seq     int64
	rng     *xrand.Rand
	nodes   []*simNode
	peers   []env.NodeID
	started bool
	blocked map[linkKey]int     // refcount of active blocks per directed link
	manual  map[linkKey]bool    // SetLink's direct toggles, outside any handle
	loss    map[linkKey]float64 // per-link message loss rates (SetLinkLoss)
	delay   map[linkKey]float64 // per-link latency multipliers (SetLinkDelay)
	parts   []*BlockHandle      // active partitions (extended by AddNode)
}

type linkKey struct{ from, to env.NodeID }

type event struct {
	at  int64 // unix nanos; int64 keeps heap comparisons cheap
	seq int64
	fn  func()
}

// before orders events by (at, seq); seq is unique, so the order is total
// and the firing sequence does not depend on the heap's shape.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventQueue is a binary min-heap of events under before. It is typed
// rather than built on container/heap so the comparison inlines and no
// push or pop goes through an interface.
type eventQueue []*event

func (q *eventQueue) push(e *event) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	*q = h
}

// pop removes and returns the earliest event; the queue must be non-empty.
func (q *eventQueue) pop() *event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	h = h[:n]
	*q = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
	return top
}

// New returns an empty simulation starting at the Unix epoch of virtual
// time.
func New(cfg Config) *Sim {
	cfg.Net = cfg.Net.withDefaults()
	cfg.Disk = cfg.Disk.withDefaults()
	return &Sim{
		cfg:     cfg,
		now:     time.Unix(0, 0).UTC(),
		rng:     xrand.New(cfg.Seed*0x9e3779b97f4a7c15 + 1),
		blocked: make(map[linkKey]int),
		manual:  make(map[linkKey]bool),
		loss:    make(map[linkKey]float64),
		delay:   make(map[linkKey]float64),
	}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Time { return s.now }

// Rand returns the simulation's root random stream (for workload
// generators and fault schedules; nodes get their own split streams).
func (s *Sim) Rand() *xrand.Rand { return s.rng }

// schedule enqueues fn at time at (clamped to now).
func (s *Sim) schedule(at time.Time, fn func()) *event {
	ns := at.UnixNano()
	if nowNS := s.now.UnixNano(); ns < nowNS {
		ns = nowNS
	}
	s.seq++
	e := &event{at: ns, seq: s.seq, fn: fn}
	s.queue.push(e)
	return e
}

// At schedules a global callback at virtual time at.
func (s *Sim) At(at time.Time, fn func()) { s.schedule(at, fn) }

// After schedules a global callback after d.
func (s *Sim) After(d time.Duration, fn func()) { s.schedule(s.now.Add(d), fn) }

// RunUntil executes events until virtual time reaches t. Events scheduled
// exactly at t are executed.
func (s *Sim) RunUntil(t time.Time) {
	limit := t.UnixNano()
	for len(s.queue) > 0 {
		e := s.queue[0]
		if e.at > limit {
			break
		}
		s.queue.pop()
		if e.fn == nil {
			continue
		}
		s.now = time.Unix(0, e.at).UTC()
		// Clear fn before invoking: a fired event must look spent, so a
		// later Timer.Stop cannot claim it prevented this callback.
		fn := e.fn
		e.fn = nil
		fn()
	}
	if s.now.Before(t) {
		s.now = t
	}
}

// RunFor advances virtual time by d.
func (s *Sim) RunFor(d time.Duration) { s.RunUntil(s.now.Add(d)) }

// RunUntilIdle executes events until the queue drains or maxEvents have
// run, and reports whether the queue drained. It is meant for protocol
// unit tests; periodic timers (heartbeats) never drain, so tests bound the
// event count.
func (s *Sim) RunUntilIdle(maxEvents int) bool {
	for i := 0; i < maxEvents; i++ {
		if len(s.queue) == 0 {
			return true
		}
		e := s.queue.pop()
		if e.fn == nil {
			continue
		}
		s.now = time.Unix(0, e.at).UTC()
		fn := e.fn
		e.fn = nil // see RunUntil: a fired event must look spent to Stop
		fn()
	}
	return len(s.queue) == 0
}

// simNode holds the runtime state of one cluster member across
// incarnations.
type simNode struct {
	sim         *Sim
	id          env.NodeID
	factory     func() env.Node
	node        env.Node // nil while crashed
	alive       bool
	incarnation int64
	rng         *xrand.Rand
	storage     *diskStorage
	nicBusy     time.Time // outbound NIC serialization horizon
}

// AddNode registers a cluster member built by factory. The returned ID
// is dense, starting at 0. Nodes added before StartAll are booted by it;
// a node added later (live scale-out, e.g. shard.Store.Rebalance) starts
// down and is booted by Restart, exactly as on the live runtime.
func (s *Sim) AddNode(factory func() env.Node) env.NodeID {
	id := env.NodeID(len(s.nodes))
	n := &simNode{
		sim:     s,
		id:      id,
		factory: factory,
		rng:     s.rng.Split(),
	}
	n.storage = newDiskStorage(s, n, s.cfg.Disk)
	s.nodes = append(s.nodes, n)
	s.peers = append(s.peers, id)
	// Active partitions extend to the newcomer: it joins on the majority
	// side, so it must not straddle an isolated set (a node booted by a
	// live rebalance during a partition would otherwise leak traffic
	// across it).
	for _, h := range s.parts {
		if h.side[id] {
			continue
		}
		for a := range h.side {
			h.blockPair(a, id)
		}
	}
	return id
}

// StartAll boots every node.
func (s *Sim) StartAll() {
	s.started = true
	for _, n := range s.nodes {
		if !n.alive {
			s.startNode(n)
		}
	}
}

func (s *Sim) startNode(n *simNode) {
	n.incarnation++
	n.alive = true
	n.node = n.factory()
	inc := n.incarnation
	// Start runs as an event so that ordering with other events is
	// deterministic.
	s.schedule(s.now, func() {
		if n.incarnation == inc && n.alive {
			n.node.Start(&nodeEnv{n: n, inc: inc})
		}
	})
}

// Crash kills node id: its volatile state is destroyed, pending timers and
// in-flight callbacks die, stable storage survives. Crashing a dead node
// is a no-op.
func (s *Sim) Crash(id env.NodeID) {
	n := s.nodes[id]
	if !n.alive {
		return
	}
	n.alive = false
	n.node = nil
	n.incarnation++ // orphan all pending callbacks
	n.storage.onCrash()
}

// Restart boots a fresh incarnation of node id from its factory. The new
// node recovers from the surviving stable storage. Restarting a live node
// is a no-op.
func (s *Sim) Restart(id env.NodeID) {
	n := s.nodes[id]
	if n.alive {
		return
	}
	s.startNode(n)
}

// Alive reports whether node id is currently running.
func (s *Sim) Alive(id env.NodeID) bool { return s.nodes[id].alive }

// Storage returns node id's stable storage (survives crashes). Intended
// for tests and experiment setup (pre-populating state).
func (s *Sim) Storage(id env.NodeID) env.Storage { return s.nodes[id].storage }

// SetDiskSlowdown degrades (or restores) node id's disk live: seek time is
// multiplied by factor and both bandwidths divided by it, modeling a
// failing drive in constant retry — the straggler that drags the WAL
// group-commit quorum and checkpoint writes. factor 1 restores the
// configured disk; factors < 1 are clamped to 1. The degradation belongs
// to the hardware, so it survives Crash/Restart of the node, and transfers
// already queued feel it from their next chunk.
func (s *Sim) SetDiskSlowdown(id env.NodeID, factor float64) {
	s.nodes[id].storage.setSlowdown(factor)
}

// DiskSlowdown returns node id's current disk degradation factor (1 when
// healthy).
func (s *Sim) DiskSlowdown(id env.NodeID) float64 {
	return s.nodes[id].storage.slowdown()
}

// SetLink blocks or unblocks the directed network link from → to. It is a
// direct toggle independent of the handle-based partitions: unblocking a
// link here does not disturb a partition that also covers it.
func (s *Sim) SetLink(from, to env.NodeID, blocked bool) {
	if blocked {
		s.manual[linkKey{from, to}] = true
	} else {
		delete(s.manual, linkKey{from, to})
	}
}

// SetLinkLoss sets a per-link message loss rate on the directed link
// from → to (0 clears it), modeling a flaky path rather than a severed
// one — NetConfig.DropRate stays the cluster-wide floor. The rate sits
// alongside the link-block layer: a loss window composes with partitions
// and SetLink toggles covering the same pair, and healing a partition
// never clears a loss rate. Rates above 1 saturate to certain loss.
func (s *Sim) SetLinkLoss(from, to env.NodeID, rate float64) {
	if rate <= 0 {
		delete(s.loss, linkKey{from, to})
	} else {
		s.loss[linkKey{from, to}] = rate
	}
}

// LinkLoss returns the loss rate of the directed link from → to (0 when
// healthy).
func (s *Sim) LinkLoss(from, to env.NodeID) float64 {
	return s.loss[linkKey{from, to}]
}

// SetLinkDelay inflates the propagation latency of the directed link
// from → to by factor (≤ 1 or 0 restores it), modeling a congested or
// rerouted path that still delivers every message — the latency cousin of
// SetLinkLoss. Only the switch latency (and its jitter) is scaled; NIC
// serialization is the sender's hardware and stays untouched. Like loss
// rates, delay factors sit outside the link-block layer and compose with
// partitions covering the same pair.
func (s *Sim) SetLinkDelay(from, to env.NodeID, factor float64) {
	if factor <= 1 {
		delete(s.delay, linkKey{from, to})
	} else {
		s.delay[linkKey{from, to}] = factor
	}
}

// LinkDelay returns the latency-inflation factor of the directed link
// from → to (1 when healthy).
func (s *Sim) LinkDelay(from, to env.NodeID) float64 {
	if f, ok := s.delay[linkKey{from, to}]; ok {
		return f
	}
	return 1
}

// Peers returns the registered node IDs in registration order (a copy),
// for harnesses that fan a per-link operation — SetLinkLoss, SetLink —
// across a victim's links the way PartitionDir does internally.
func (s *Sim) Peers() []env.NodeID {
	out := make([]env.NodeID, len(s.peers))
	copy(out, s.peers)
	return out
}

// linkBlocked reports whether the directed link from → to drops traffic.
func (s *Sim) linkBlocked(from, to env.NodeID) bool {
	k := linkKey{from, to}
	return s.blocked[k] > 0 || s.manual[k]
}

// block/unblock maintain the refcounted directed-block map handles use.
func (s *Sim) block(k linkKey) { s.blocked[k]++ }
func (s *Sim) unblock(k linkKey) {
	if s.blocked[k] <= 1 {
		delete(s.blocked, k)
	} else {
		s.blocked[k]--
	}
}

// BlockHandle is one composable set of directed link blocks (one
// partition). Healing it removes exactly the blocks it installed — two
// overlapping partitions compose, and healing one leaves the other intact.
type BlockHandle struct {
	s      *Sim
	links  []linkKey
	side   map[env.NodeID]bool // isolated set; nil once healed
	dir    env.LinkDir
	healed bool
}

var _ env.PartitionHandle = (*BlockHandle)(nil)

// Heal removes this handle's blocks. Idempotent.
func (h *BlockHandle) Heal() {
	if h.healed {
		return
	}
	h.healed = true
	for _, k := range h.links {
		h.s.unblock(k)
	}
	h.links = nil
	for i, p := range h.s.parts {
		if p == h {
			h.s.parts = append(h.s.parts[:i], h.s.parts[i+1:]...)
			break
		}
	}
}

// blockPair installs the handle's directed blocks between isolated node a
// and outside node b, honoring the handle's direction.
func (h *BlockHandle) blockPair(a, b env.NodeID) {
	if h.dir == env.LinkBothWays || h.dir == env.LinkOutboundOnly {
		k := linkKey{a, b}
		h.s.block(k)
		h.links = append(h.links, k)
	}
	if h.dir == env.LinkBothWays || h.dir == env.LinkInboundOnly {
		k := linkKey{b, a}
		h.s.block(k)
		h.links = append(h.links, k)
	}
}

// Partition isolates the given nodes from the rest of the cluster in both
// directions and returns the handle that heals exactly this partition.
// The partition set is persistent: a node added later (live scale-out)
// joins on the majority side with its links to the isolated set blocked,
// rather than straddling the partition.
func (s *Sim) Partition(isolated ...env.NodeID) *BlockHandle {
	return s.PartitionDir(env.LinkBothWays, isolated...)
}

// PartitionDir is Partition with an explicit direction: LinkOutboundOnly
// and LinkInboundOnly model asymmetric one-way loss relative to the
// isolated set.
func (s *Sim) PartitionDir(dir env.LinkDir, isolated ...env.NodeID) *BlockHandle {
	h := &BlockHandle{s: s, dir: dir, side: make(map[env.NodeID]bool, len(isolated))}
	for _, id := range isolated {
		h.side[id] = true
	}
	for _, b := range s.peers {
		if h.side[b] {
			continue
		}
		for a := range h.side {
			h.blockPair(a, b)
		}
	}
	s.parts = append(s.parts, h)
	return h
}

// Heal removes all link blocks: every active partition handle is healed
// and every SetLink toggle cleared.
func (s *Sim) Heal() {
	for len(s.parts) > 0 {
		s.parts[len(s.parts)-1].Heal()
	}
	s.blocked = make(map[linkKey]int)
	s.manual = make(map[linkKey]bool)
}

// nodeEnv is the env.Env for a single incarnation of a node. Callbacks are
// delivered only while the incarnation is current.
type nodeEnv struct {
	n   *simNode
	inc int64
}

var _ env.Env = (*nodeEnv)(nil)

func (e *nodeEnv) live() bool { return e.n.alive && e.n.incarnation == e.inc }

func (e *nodeEnv) ID() env.NodeID      { return e.n.id }
func (e *nodeEnv) Peers() []env.NodeID { return e.n.sim.peers }
func (e *nodeEnv) Now() time.Time      { return e.n.sim.now }

func (e *nodeEnv) Post(fn func()) {
	e.n.sim.schedule(e.n.sim.now, func() {
		if e.live() {
			fn()
		}
	})
}

type simTimer struct {
	ev      *event
	stopped bool
}

func (t *simTimer) Stop() bool {
	if t.stopped || t.ev.fn == nil {
		return false
	}
	t.stopped = true
	t.ev.fn = nil // the queue skips nil fns
	return true
}

func (e *nodeEnv) After(d time.Duration, fn func()) env.Timer {
	ev := e.n.sim.schedule(e.n.sim.now.Add(d), nil)
	ev.fn = func() {
		if e.live() {
			fn()
		}
	}
	return &simTimer{ev: ev}
}

func (e *nodeEnv) Send(to env.NodeID, msg env.Message) {
	e.n.sim.send(e.n, to, msg)
}

func (e *nodeEnv) Storage() env.Storage { return e.n.storage }

func (e *nodeEnv) Rand() env.Rand { return e.n.rng }

func (e *nodeEnv) Logf(format string, args ...any) {
	w := e.n.sim.cfg.DebugLog
	if w == nil {
		return
	}
	fmt.Fprintf(w, "%8.3fs n%d: %s\n",
		e.n.sim.now.Sub(time.Unix(0, 0).UTC()).Seconds(),
		e.n.id, fmt.Sprintf(format, args...))
}

// send models the network: sender NIC serialization, switch latency with
// jitter, drops and partitions; see NetConfig.
func (s *Sim) send(from *simNode, to env.NodeID, msg env.Message) {
	if int(to) < 0 || int(to) >= len(s.nodes) {
		return
	}
	if s.linkBlocked(from.id, to) {
		return
	}
	nc := s.cfg.Net
	if nc.DropRate > 0 && s.rng.Float64() < nc.DropRate {
		return
	}
	// Per-link loss draws only when a rate is set, so runs without loss
	// windows consume the same random stream as before.
	if r := s.loss[linkKey{from.id, to}]; r > 0 && s.rng.Float64() < r {
		return
	}
	size := sizeOf(msg)
	var depart time.Time
	if from.id == to {
		// Loopback skips the NIC.
		depart = s.now
	} else {
		depart = s.now
		if from.nicBusy.After(depart) {
			depart = from.nicBusy
		}
		depart = depart.Add(nc.SendOverhead + time.Duration(float64(size)*nc.perByte()))
		from.nicBusy = depart
	}
	lat := nc.BaseLatency
	if nc.Jitter > 0 {
		lat += time.Duration(s.rng.Float64() * nc.Jitter * float64(nc.BaseLatency))
	}
	// Per-link delay scales only when a factor is set, so runs without
	// delay windows consume the same random stream as before.
	if f, ok := s.delay[linkKey{from.id, to}]; ok {
		lat = time.Duration(float64(lat) * f)
	}
	arrive := depart.Add(lat)
	tgt := s.nodes[to]
	s.schedule(arrive, func() {
		if tgt.alive && tgt.node != nil {
			tgt.node.Receive(from.id, msg)
		}
	})
}
