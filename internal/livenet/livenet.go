// Package livenet is the real-time runtime for the protocol stack: each
// node runs a goroutine event loop, messages travel over in-process
// channels with configurable latency and loss, timers use the wall clock,
// and stable storage is crash-durable within the process. The examples
// and commands run the same env.Node implementations (internal/core,
// internal/paxos) on this runtime that the experiments run on the
// deterministic simulator.
//
// Fault injection mirrors the simulator's surface: a message-filter layer
// blocks directed links (SetLink) and installs handle-based, composable
// partitions (Partition/PartitionDir — symmetric or one-way), healed per
// handle or wholesale (Heal). Active partition sets persist, so a node
// added mid-partition joins the majority side, exactly as on the
// simulator.
package livenet

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"robuststore/internal/env"
	"robuststore/internal/xrand"
)

// Config parameterizes a live cluster.
type Config struct {
	// Latency delays each delivered message (one way). Default 200 µs.
	Latency time.Duration

	// Jitter adds up to this much extra random delay. Default 0.
	Jitter time.Duration

	// DropRate silently drops this fraction of messages (fault
	// injection in tests). Default 0.
	DropRate float64

	// Seed feeds the per-node deterministic streams handed to protocol
	// code (message delivery order is still scheduler-dependent).
	Seed uint64
}

// Cluster owns a set of live nodes. The node and peer lists are
// published as atomic snapshots (copy-on-append) so node goroutines can
// read them lock-free while live scale-out (shard.Store.Rebalance)
// registers new members mid-run.
type Cluster struct {
	cfg   Config
	mu    sync.Mutex // serializes AddNode writers
	nodes atomic.Pointer[[]*liveNode]
	peers atomic.Pointer[[]env.NodeID]
	rng   *xrand.Rand
	wg    sync.WaitGroup

	// The message-filter layer: directed link blocks consulted on every
	// Send, mirroring the simulator's fault-injection surface so
	// partition faultloads run identically on both runtimes. blocked is
	// refcounted per handle-based partition; manual holds SetLink's
	// direct toggles.
	linkMu  sync.RWMutex
	blocked map[linkKey]int        // guarded by linkMu
	manual  map[linkKey]bool       // guarded by linkMu
	loss    map[linkKey]float64    // guarded by linkMu
	delay   map[linkKey]float64    // guarded by linkMu
	gray    map[env.NodeID]float64 // guarded by linkMu
	parts   []*BlockHandle         // guarded by linkMu
}

type linkKey struct{ from, to env.NodeID }

// nodeList returns the current node snapshot.
func (c *Cluster) nodeList() []*liveNode {
	if p := c.nodes.Load(); p != nil {
		return *p
	}
	return nil
}

// node returns node id, or nil when out of range.
func (c *Cluster) node(id env.NodeID) *liveNode {
	nodes := c.nodeList()
	if int(id) < 0 || int(id) >= len(nodes) {
		return nil
	}
	return nodes[id]
}

// New creates an empty cluster.
func New(cfg Config) *Cluster {
	if cfg.Latency == 0 {
		cfg.Latency = 200 * time.Microsecond
	}
	return &Cluster{
		cfg:     cfg,
		rng:     xrand.New(cfg.Seed*0x9e3779b97f4a7c15 + 3),
		blocked: make(map[linkKey]int),
		manual:  make(map[linkKey]bool),
		loss:    make(map[linkKey]float64),
		delay:   make(map[linkKey]float64),
		gray:    make(map[env.NodeID]float64),
	}
}

// SetLinkLoss sets a per-link message loss rate on the directed link
// from → to (0 clears it). It sits alongside the link-block layer: a lossy
// link composes with partitions and SetLink toggles covering the same
// pair, and healing a partition never clears a loss rate.
func (c *Cluster) SetLinkLoss(from, to env.NodeID, rate float64) {
	c.linkMu.Lock()
	defer c.linkMu.Unlock()
	if rate <= 0 {
		delete(c.loss, linkKey{from, to})
	} else {
		c.loss[linkKey{from, to}] = rate
	}
}

// linkLoss returns the loss rate of the directed link from → to.
func (c *Cluster) linkLoss(from, to env.NodeID) float64 {
	c.linkMu.RLock()
	defer c.linkMu.RUnlock()
	return c.loss[linkKey{from, to}]
}

// SetLinkDelay inflates the delivery latency of the directed link
// from → to by factor (≤ 1 clears it) — the latency cousin of
// SetLinkLoss, composable with partitions covering the same pair.
func (c *Cluster) SetLinkDelay(from, to env.NodeID, factor float64) {
	c.linkMu.Lock()
	defer c.linkMu.Unlock()
	if factor <= 1 {
		delete(c.delay, linkKey{from, to})
	} else {
		c.delay[linkKey{from, to}] = factor
	}
}

// linkDelay returns the latency-inflation factor of from → to (1 when
// healthy).
func (c *Cluster) linkDelay(from, to env.NodeID) float64 {
	c.linkMu.RLock()
	defer c.linkMu.RUnlock()
	if f, ok := c.delay[linkKey{from, to}]; ok {
		return f
	}
	return 1
}

// grayControlSize is the wire-size ceiling under which a message counts
// as control traffic for SetGray: liveness pings, Paxos prepares and
// probe messages all fit, while value-bearing accept/learn traffic does
// not.
const grayControlSize = 128

// SetGray puts node id into (or out of, rate ≤ 0) a gray-failure mode at
// the transport: inbound messages larger than grayControlSize are dropped
// with probability rate, while small control traffic — failure-detector
// pings, Paxos prepares, web-tier probes — passes untouched. The node
// keeps looking alive to every prober while its real work limps, the
// defining asymmetry of a gray failure.
func (c *Cluster) SetGray(id env.NodeID, rate float64) {
	c.linkMu.Lock()
	defer c.linkMu.Unlock()
	if rate <= 0 {
		delete(c.gray, id)
	} else {
		c.gray[id] = rate
	}
}

// grayRate returns node id's inbound gray-drop rate (0 when healthy).
func (c *Cluster) grayRate(id env.NodeID) float64 {
	c.linkMu.RLock()
	defer c.linkMu.RUnlock()
	return c.gray[id]
}

// SetLink blocks or unblocks the directed network link from → to. It is a
// direct toggle independent of the handle-based partitions: unblocking a
// link here does not disturb a partition that also covers it.
func (c *Cluster) SetLink(from, to env.NodeID, blocked bool) {
	c.linkMu.Lock()
	defer c.linkMu.Unlock()
	if blocked {
		c.manual[linkKey{from, to}] = true
	} else {
		delete(c.manual, linkKey{from, to})
	}
}

// linkBlocked reports whether the directed link from → to drops traffic.
func (c *Cluster) linkBlocked(from, to env.NodeID) bool {
	c.linkMu.RLock()
	defer c.linkMu.RUnlock()
	k := linkKey{from, to}
	return c.blocked[k] > 0 || c.manual[k]
}

// BlockHandle is one composable set of directed link blocks (one
// partition) on the live runtime. Healing it removes exactly the blocks
// it installed, so overlapping partitions compose.
type BlockHandle struct {
	c      *Cluster
	links  []linkKey
	side   map[env.NodeID]bool
	dir    env.LinkDir
	healed bool
}

var _ env.PartitionHandle = (*BlockHandle)(nil)

// Heal removes this handle's blocks. Idempotent; safe from any goroutine.
func (h *BlockHandle) Heal() {
	h.c.linkMu.Lock()
	defer h.c.linkMu.Unlock()
	h.healLocked()
}

func (h *BlockHandle) healLocked() {
	if h.healed {
		return
	}
	h.healed = true
	for _, k := range h.links {
		if h.c.blocked[k] <= 1 {
			delete(h.c.blocked, k)
		} else {
			h.c.blocked[k]--
		}
	}
	h.links = nil
	for i, p := range h.c.parts {
		if p == h {
			h.c.parts = append(h.c.parts[:i], h.c.parts[i+1:]...)
			break
		}
	}
}

// blockPairLocked installs the handle's directed blocks between isolated
// node a and outside node b, honoring the handle's direction. Caller
// holds linkMu.
func (h *BlockHandle) blockPairLocked(a, b env.NodeID) {
	if h.dir == env.LinkBothWays || h.dir == env.LinkOutboundOnly {
		k := linkKey{a, b}
		h.c.blocked[k]++
		h.links = append(h.links, k)
	}
	if h.dir == env.LinkBothWays || h.dir == env.LinkInboundOnly {
		k := linkKey{b, a}
		h.c.blocked[k]++
		h.links = append(h.links, k)
	}
}

// Partition isolates the given nodes from the rest of the cluster in both
// directions and returns the handle that heals exactly this partition.
// Like the simulator's, the partition set persists: a node added later
// joins on the majority side rather than straddling it.
func (c *Cluster) Partition(isolated ...env.NodeID) *BlockHandle {
	return c.PartitionDir(env.LinkBothWays, isolated...)
}

// PartitionDir is Partition with an explicit direction (asymmetric
// one-way loss relative to the isolated set).
func (c *Cluster) PartitionDir(dir env.LinkDir, isolated ...env.NodeID) *BlockHandle {
	h := &BlockHandle{c: c, dir: dir, side: make(map[env.NodeID]bool, len(isolated))}
	for _, id := range isolated {
		h.side[id] = true
	}
	c.linkMu.Lock()
	defer c.linkMu.Unlock()
	var peers []env.NodeID
	if p := c.peers.Load(); p != nil {
		peers = *p
	}
	for _, b := range peers {
		if h.side[b] {
			continue
		}
		for a := range h.side {
			h.blockPairLocked(a, b)
		}
	}
	c.parts = append(c.parts, h)
	return h
}

// Heal removes all link blocks: every active partition handle is healed
// and every SetLink toggle cleared.
func (c *Cluster) Heal() {
	c.linkMu.Lock()
	defer c.linkMu.Unlock()
	for len(c.parts) > 0 {
		c.parts[len(c.parts)-1].healLocked()
	}
	c.blocked = make(map[linkKey]int)
	c.manual = make(map[linkKey]bool)
}

// AddNode registers a node built by factory; the factory runs once per
// incarnation (start and every restart). Nodes added before StartAll are
// booted by it; a node added later (live scale-out, e.g.
// shard.Store.Rebalance) starts down and is booted by Restart.
func (c *Cluster) AddNode(factory func() env.Node) env.NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.nodeList()
	id := env.NodeID(len(old))
	n := &liveNode{
		c:       c,
		id:      id,
		factory: factory,
		rng:     c.rng.Split(),
		storage: newMemStorage(),
	}
	nodes := append(append([]*liveNode(nil), old...), n)
	var oldPeers []env.NodeID
	if p := c.peers.Load(); p != nil {
		oldPeers = *p
	}
	peers := append(append([]env.NodeID(nil), oldPeers...), id)
	c.nodes.Store(&nodes)
	c.peers.Store(&peers)
	// Active partitions extend to the newcomer (majority side) so a node
	// booted by a live rebalance cannot straddle an isolated set.
	c.linkMu.Lock()
	for _, h := range c.parts {
		if h.side[id] {
			continue
		}
		for a := range h.side {
			h.blockPairLocked(a, id)
		}
	}
	c.linkMu.Unlock()
	return id
}

// StartAll boots every node.
func (c *Cluster) StartAll() {
	for _, n := range c.nodeList() {
		n.start()
	}
}

// Crash kills a node: volatile state and pending work are discarded,
// stable storage survives.
func (c *Cluster) Crash(id env.NodeID) { c.node(id).crash() }

// Restart boots a fresh incarnation of a crashed node.
func (c *Cluster) Restart(id env.NodeID) { c.node(id).start() }

// Alive reports whether a node is running.
func (c *Cluster) Alive(id env.NodeID) bool {
	n := c.node(id)
	if n == nil {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.alive
}

// Post schedules fn on a node's event loop (no-op if the node is down).
// It is how application goroutines hand work to protocol code.
func (c *Cluster) Post(id env.NodeID, fn func()) { c.node(id).post(fn) }

// After schedules a cluster-level callback on the wall clock, independent
// of any node incarnation (used by shard.Store's checkpoint sweep).
func (c *Cluster) After(d time.Duration, fn func()) { time.AfterFunc(d, fn) }

// Now returns the cluster clock — the wall clock on the live runtime. It
// satisfies shard's nower capability, so deterministic code (the
// migration driver) takes its timestamps from the runtime instead of
// calling time.Now itself.
func (c *Cluster) Now() time.Time { return time.Now() }

// Close crashes every node and waits for their loops to exit.
func (c *Cluster) Close() {
	for _, n := range c.nodeList() {
		n.crash()
	}
	c.wg.Wait()
}

// liveNode is one member across incarnations.
type liveNode struct {
	c       *Cluster
	id      env.NodeID
	factory func() env.Node
	rng     *xrand.Rand
	storage *memStorage

	mu    sync.Mutex
	alive bool
	inc   int64
	inbox chan func()
	node  env.Node

	// spill queues runtime-internal events (posts, timer firings,
	// storage completions) that found the inbox full, in order; the loop
	// moves them into the inbox as it frees up. Only network messages
	// may be dropped at the cap.
	spill   []func()    // guarded by mu
	spilled atomic.Bool // len(spill) > 0
}

// inboxSize caps a node's queued network messages; a message that finds
// the inbox full is lost, like a datagram at a full socket buffer.
const inboxSize = 8192

func (n *liveNode) start() {
	n.mu.Lock()
	if n.alive {
		n.mu.Unlock()
		return
	}
	n.inc++
	inc := n.inc
	n.alive = true
	n.inbox = make(chan func(), inboxSize)
	n.node = n.factory()
	inbox := n.inbox
	node := n.node
	n.mu.Unlock()

	e := &liveEnv{n: n, inc: inc}
	n.c.wg.Add(1)
	go func() {
		defer n.c.wg.Done()
		for {
			var fn func()
			select {
			case fn = <-inbox:
			default:
				// Check the spill under the lock before blocking: any event
				// spilled after this check found the inbox full, so the
				// receive below cannot block on it.
				n.refill(inbox)
				fn = <-inbox
			}
			if fn == nil {
				return // crashed: inbox closed and drained
			}
			fn()
			if n.spilled.Load() {
				n.refill(inbox)
			}
		}
	}()
	n.postInc(inc, func() { node.Start(e) })
}

// refill moves spilled events into the incarnation's inbox while it has
// room, preserving their order.
func (n *liveNode) refill(inbox chan func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.inbox != inbox {
		return
	}
	for len(n.spill) > 0 {
		select {
		case inbox <- n.spill[0]:
			n.spill[0] = nil
			n.spill = n.spill[1:]
		default:
			return
		}
	}
	n.spill = nil
	n.spilled.Store(false)
}

func (n *liveNode) crash() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive {
		return
	}
	n.alive = false
	n.inc++ // orphan timers and storage completions
	n.node = nil
	close(n.inbox)
	n.inbox = nil
	n.spill = nil
	n.spilled.Store(false)
}

// deliver queues a network message on the node's loop if it is alive.
// A full inbox drops it (protocols tolerate message loss); blocking here
// could deadlock loops sending to each other.
func (n *liveNode) deliver(fn func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive || n.inbox == nil {
		return
	}
	select {
	case n.inbox <- fn:
	default:
	}
}

// post runs fn on the current incarnation's loop if it is alive.
func (n *liveNode) post(fn func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.enqueueLocked(fn)
}

// postInc runs fn on incarnation inc's loop if it is still current. The
// send happens under the mutex so it cannot race the close in crash.
func (n *liveNode) postInc(inc int64, fn func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.inc == inc {
		n.enqueueLocked(fn)
	}
}

// enqueueLocked queues a runtime-internal event, never dropping it: when
// the inbox is full (or earlier events already spilled) it goes to the
// spill queue behind them.
func (n *liveNode) enqueueLocked(fn func()) {
	if !n.alive || n.inbox == nil {
		return
	}
	if len(n.spill) == 0 {
		select {
		case n.inbox <- fn:
			return
		default:
		}
	}
	n.spill = append(n.spill, fn)
	n.spilled.Store(true)
}

// liveEnv implements env.Env for one incarnation.
type liveEnv struct {
	n   *liveNode
	inc int64
}

var _ env.Env = (*liveEnv)(nil)

func (e *liveEnv) ID() env.NodeID { return e.n.id }

func (e *liveEnv) Peers() []env.NodeID {
	if p := e.n.c.peers.Load(); p != nil {
		return *p
	}
	return nil
}

func (e *liveEnv) Now() time.Time { return time.Now() }

func (e *liveEnv) Post(fn func()) { e.n.postInc(e.inc, fn) }

type liveTimer struct{ t *time.Timer }

func (t *liveTimer) Stop() bool { return t.t.Stop() }

func (e *liveEnv) After(d time.Duration, fn func()) env.Timer {
	t := time.AfterFunc(d, func() { e.n.postInc(e.inc, fn) })
	return &liveTimer{t: t}
}

func (e *liveEnv) Send(to env.NodeID, msg env.Message) {
	c := e.n.c
	target := c.node(to)
	if target == nil {
		return
	}
	if c.linkBlocked(e.n.id, to) {
		return
	}
	if c.cfg.DropRate > 0 && rand.Float64() < c.cfg.DropRate {
		return
	}
	if r := c.linkLoss(e.n.id, to); r > 0 && rand.Float64() < r {
		return
	}
	if r := c.grayRate(to); r > 0 {
		size := int64(grayControlSize + 1)
		if s, ok := msg.(interface{ WireSize() int64 }); ok {
			size = s.WireSize()
		}
		if size > grayControlSize && rand.Float64() < r {
			return
		}
	}
	from := e.n.id
	delay := c.cfg.Latency
	if c.cfg.Jitter > 0 {
		delay += time.Duration(rand.Int63n(int64(c.cfg.Jitter)))
	}
	if f := c.linkDelay(from, to); f > 1 {
		delay = time.Duration(float64(delay) * f)
	}
	time.AfterFunc(delay, func() {
		target.mu.Lock()
		node := target.node
		target.mu.Unlock()
		if node != nil {
			target.deliver(func() {
				target.mu.Lock()
				cur := target.node
				target.mu.Unlock()
				if cur != nil {
					cur.Receive(from, msg)
				}
			})
		}
	})
}

func (e *liveEnv) Storage() env.Storage { return &storageView{n: e.n, inc: e.inc} }

func (e *liveEnv) Rand() env.Rand { return e.n.rng }

func (e *liveEnv) Logf(format string, args ...any) {}

// memStorage is crash-durable in-process storage: contents survive
// crash/restart of the node within the process lifetime. Completions are
// posted back to the owning incarnation's loop.
type memStorage struct {
	mu         sync.Mutex
	records    []env.Record
	firstIndex int64
	snapshots  map[string]env.Snapshot
}

func newMemStorage() *memStorage {
	return &memStorage{snapshots: make(map[string]env.Snapshot)}
}

// storageView binds the storage to one incarnation so stale completions
// are dropped.
type storageView struct {
	n   *liveNode
	inc int64
}

var _ env.Storage = (*storageView)(nil)

func (s *storageView) done(fn func()) { s.n.postInc(s.inc, fn) }

func (s *storageView) Append(rec env.Record, done func(error)) {
	st := s.n.storage
	st.mu.Lock()
	st.records = append(st.records, rec)
	st.mu.Unlock()
	if done != nil {
		s.done(func() { done(nil) })
	}
}

func (s *storageView) AppendBatch(recs []env.Record, done func(error)) {
	st := s.n.storage
	st.mu.Lock()
	st.records = append(st.records, recs...)
	st.mu.Unlock()
	if done != nil {
		s.done(func() { done(nil) })
	}
}

func (s *storageView) ReadRecords(done func([]env.Record, error)) {
	st := s.n.storage
	st.mu.Lock()
	recs := make([]env.Record, len(st.records))
	copy(recs, st.records)
	st.mu.Unlock()
	s.done(func() { done(recs, nil) })
}

func (s *storageView) Truncate(firstKept int64, done func(error)) {
	st := s.n.storage
	st.mu.Lock()
	if firstKept > st.firstIndex {
		drop := firstKept - st.firstIndex
		if drop > int64(len(st.records)) {
			drop = int64(len(st.records))
		}
		st.records = append([]env.Record(nil), st.records[drop:]...)
		st.firstIndex += drop
	}
	st.mu.Unlock()
	if done != nil {
		s.done(func() { done(nil) })
	}
}

func (s *storageView) FirstIndex() int64 {
	st := s.n.storage
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.firstIndex
}

func (s *storageView) SaveSnapshot(name string, snap env.Snapshot, done func(error)) {
	st := s.n.storage
	st.mu.Lock()
	st.snapshots[name] = snap
	st.mu.Unlock()
	if done != nil {
		s.done(func() { done(nil) })
	}
}

func (s *storageView) DeleteSnapshot(name string, done func(error)) {
	st := s.n.storage
	st.mu.Lock()
	delete(st.snapshots, name)
	st.mu.Unlock()
	if done != nil {
		s.done(func() { done(nil) })
	}
}

func (s *storageView) LoadSnapshot(name string, done func(env.Snapshot, bool)) {
	st := s.n.storage
	st.mu.Lock()
	snap, ok := st.snapshots[name]
	st.mu.Unlock()
	s.done(func() { done(snap, ok) })
}
