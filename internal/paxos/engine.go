package paxos

import (
	"sort"
	"time"

	"robuststore/internal/detsort"
	"robuststore/internal/env"
)

// Config parameterizes an Engine. Zero fields take the documented
// defaults.
type Config struct {
	// FastEnabled allows fast rounds (Fast Paxos) while at least
	// ⌈3N/4⌉ replicas are alive; otherwise the engine uses classic
	// Paxos rounds, matching the paper's Treplica configuration (§2).
	FastEnabled bool

	// BatchDelay bounds how long submitted commands wait to be grouped
	// into one proposed value. Default 5 ms.
	BatchDelay time.Duration

	// MaxBatchCmds flushes a batch early once it holds this many
	// commands. Default 64.
	MaxBatchCmds int

	// MaxInFlight bounds the number of proposed-but-undelivered batches
	// per node — the consensus pipeline depth. Proposals stream into
	// consecutive instance slots without waiting for earlier batches to
	// be learned; once the window is full, further commands queue
	// locally and are packed into full batches as slots free up
	// (backpressure grows the group-commit size under load). The bound
	// is enforced uniformly: no proposal path — size-triggered,
	// timer-triggered, or queue drain — may overshoot it. Default 5.
	MaxInFlight int

	// Admission parameterizes the proposer's write-admission controller
	// (see AdmissionConfig). Zero fields take defaults derived from the
	// MaxInFlight × MaxBatchCmds window.
	Admission AdmissionConfig

	// HeartbeatInterval is the failure-detector ping period. Default
	// 100 ms.
	HeartbeatInterval time.Duration

	// LeaderTimeout is the base suspicion timeout before a node tries
	// to become leader; it is staggered by node index to avoid duels.
	// Default 600 ms.
	LeaderTimeout time.Duration

	// SweepInterval is the housekeeping period (retries, gap recovery,
	// catch-up checks). Default 50 ms.
	SweepInterval time.Duration

	// CmdSize returns the modeled serialized size of a command in
	// bytes; nil means 128 bytes each.
	CmdSize func(cmd any) int64

	// Deliver is invoked, in instance order and exactly once per fresh
	// value, with each decided command batch. No-ops and duplicate
	// values (possible under fast-path collisions and retries) are
	// filtered out before delivery. Required.
	Deliver func(inst InstanceID, v Value)

	// OnCatchUpGap is invoked when peers can no longer supply the log
	// suffix this node needs (they compacted past it); the layer above
	// must fall back to a full state transfer. May be nil.
	OnCatchUpGap func(firstAvail InstanceID)

	// Members lists the consensus group. Nil means every node of the
	// runtime; deployments with non-member nodes (the web tier's proxy)
	// must set it, and runtimes hosting several independent groups
	// (internal/shard) give each group its own disjoint member set. The
	// slice must be identical (same IDs, same order) on every member:
	// ballot ownership is computed round-robin over the member *index*,
	// so the IDs themselves may be arbitrary.
	Members []env.NodeID

	// Learner marks this engine as a non-voting learner: it receives
	// learn/commit traffic and applies the log but never votes, proposes,
	// or counts toward any quorum. A learner is not listed in Members
	// (Members still names the voting group it observes) and sends no
	// pings — voters must not mistake it for a quorum participant.
	Learner bool

	// Learners lists the non-voting learner nodes attached to this
	// group. Voters forward decided values (chosenMsg) and heartbeats to
	// them so learners track the log and the current ballot without ever
	// being counted. Must be empty on learner engines themselves.
	Learners []env.NodeID
}

func (c Config) withDefaults() Config {
	if c.BatchDelay == 0 {
		c.BatchDelay = 5 * time.Millisecond
	}
	if c.MaxBatchCmds == 0 {
		c.MaxBatchCmds = 64
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 5
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 100 * time.Millisecond
	}
	if c.LeaderTimeout == 0 {
		c.LeaderTimeout = 600 * time.Millisecond
	}
	if c.SweepInterval == 0 {
		c.SweepInterval = 50 * time.Millisecond
	}
	if c.CmdSize == nil {
		c.CmdSize = func(any) int64 { return 128 }
	}
	c.Admission = c.Admission.withDefaults(c.MaxInFlight*c.MaxBatchCmds, 128)
	return c
}

const (
	// retryTimeout re-proposes a value that has not been learned.
	retryTimeout = 800 * time.Millisecond

	// fastDecisionTimeout is how long the coordinator waits for a fast
	// quorum on an instance before starting coordinated recovery.
	fastDecisionTimeout = 40 * time.Millisecond

	// catchUpChunk bounds entries per catch-up reply.
	catchUpChunk = 512
)

// Engine is one replica's consensus state: proposer, acceptor, learner
// and (when it owns the current ballot) leader/coordinator, colocated as
// in Treplica. All methods must be called from the node's executor.
type Engine struct {
	cfg     Config
	e       env.Env
	me      env.NodeID
	myIdx   int // index of me within members (ballot ownership)
	n       int
	members []env.NodeID

	booted  bool
	started time.Time
	epoch   int64 // incarnation identifier embedded in ValueIDs

	// Proposer. cmdQueue is a FIFO ring: qHead indexes the next command
	// to propose and the consumed prefix is reclaimed in place, so deep
	// backlogs drain in O(n) total instead of reallocating the remainder
	// per batch.
	nextSeq     int64
	batchTimer  env.Timer
	outstanding map[int64]*pendingValue // keyed by ValueID.Seq
	cmdQueue    []any
	qHead       int
	queueBytes  int64
	wal         *walWriter
	adm         admissionController

	// Acceptor (durable; rebuilt from the WAL on boot).
	promised     Ballot
	instPromised map[InstanceID]Ballot
	accepted     map[InstanceID]acceptedInfo
	fastBallot   Ballot     // fast round this acceptor may self-assign in
	fastFrom     InstanceID // floor of the fast self-assignment range
	nextFree     InstanceID // next candidate slot for self-assignment
	records      int64      // durable records ever appended (for Truncate)

	// Ballot tracking.
	curBallot      Ballot // highest leadership claim seen
	maxBallotSeq   int64  // highest ballot sequence seen anywhere
	lastLeaderSeen time.Time
	lastSeen       map[env.NodeID]time.Time
	leader         *leaderState // non-nil while this node leads

	// Learner.
	chosen        map[InstanceID]Value
	firstUnchosen InstanceID                         // next instance to deliver
	retainedFrom  InstanceID                         // chosen entries below were compacted away
	maxKnown      InstanceID                         // highest instance known decided cluster-wide
	delivered     map[env.NodeID]map[int64]*dedupSet // node -> epoch -> seqs
	catchUpAt     time.Time
	gapSince      time.Time
}

type pendingValue struct {
	v        Value
	lastSent time.Time
}

// New creates an engine; Boot must be called before use.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	if cfg.Deliver == nil {
		panic("paxos: Config.Deliver is required")
	}
	return &Engine{
		cfg:          cfg,
		adm:          admissionController{cfg: cfg.Admission},
		outstanding:  make(map[int64]*pendingValue),
		instPromised: make(map[InstanceID]Ballot),
		accepted:     make(map[InstanceID]acceptedInfo),
		promised:     ballotNone,
		curBallot:    ballotNone,
		fastBallot:   ballotNone,
		maxBallotSeq: -1,
		lastSeen:     make(map[env.NodeID]time.Time),
		chosen:       make(map[InstanceID]Value),
		delivered:    make(map[env.NodeID]map[int64]*dedupSet),
	}
}

// Boot recovers the acceptor state from the WAL and joins the cluster.
// deliverFloor is the first instance the layer above still needs (one past
// its checkpoint); delivery resumes there while the missing suffix is
// learned from the active replicas — the recovery path of paper §2.
// ready, if non-nil, runs once the WAL has been replayed.
func (en *Engine) Boot(e env.Env, deliverFloor InstanceID, ready func()) {
	en.e = e
	en.wal = &walWriter{e: e}
	en.me = e.ID()
	en.members = en.cfg.Members
	if en.members == nil {
		en.members = e.Peers()
	}
	en.myIdx = -1
	for i, m := range en.members {
		if m == en.me {
			en.myIdx = i
		}
	}
	if en.myIdx < 0 && !en.cfg.Learner {
		panic("paxos: this node is not listed in Members")
	}
	en.n = len(en.members)
	en.firstUnchosen = deliverFloor
	en.retainedFrom = deliverFloor
	en.nextFree = deliverFloor
	en.started = e.Now()
	en.epoch = e.Now().UnixNano()
	en.lastLeaderSeen = e.Now()
	e.Storage().ReadRecords(func(recs []env.Record, err error) {
		if err != nil {
			e.Logf("paxos: WAL read failed: %v", err)
			return
		}
		en.replay(recs)
		en.booted = true
		en.startTimers()
		en.requestCatchUp()
		if ready != nil {
			ready()
		}
	})
}

// replay rebuilds durable acceptor state from WAL records.
func (en *Engine) replay(recs []env.Record) {
	en.records = en.e.Storage().FirstIndex() + int64(len(recs))
	for _, r := range recs {
		switch d := r.Data.(type) {
		case promiseRec:
			if en.promised.Less(d.B) {
				en.promised = d.B
			}
			en.noteBallot(d.B)
		case instPromiseRec:
			if en.instPromised[d.Inst].Less(d.B) {
				en.instPromised[d.Inst] = d.B
			}
			en.noteBallot(d.B)
		case acceptRec:
			cur, ok := en.accepted[d.Inst]
			if !ok || cur.B.LessEq(d.B) {
				en.accepted[d.Inst] = acceptedInfo{Inst: d.Inst, B: d.B, V: d.V}
			}
			en.noteBallot(d.B)
		case compactRec:
			en.instPromised = make(map[InstanceID]Ballot, len(d.InstPromised))
			for i, b := range d.InstPromised {
				en.instPromised[i] = b
			}
			en.accepted = make(map[InstanceID]acceptedInfo, len(d.Accepted))
			for _, a := range d.Accepted {
				en.accepted[a.Inst] = a
			}
			en.promised = d.Promised
			en.noteBallot(d.Promised)
		}
	}
	for i := range en.accepted {
		if i >= en.nextFree {
			en.nextFree = i + 1
		}
	}
}

func (en *Engine) noteBallot(b Ballot) {
	if b.Seq > en.maxBallotSeq {
		en.maxBallotSeq = b.Seq
	}
}

func (en *Engine) startTimers() {
	var ping, sweep func()
	ping = func() {
		en.sendPing()
		en.e.After(en.cfg.HeartbeatInterval, ping)
	}
	sweep = func() {
		en.sweep()
		en.e.After(en.cfg.SweepInterval, sweep)
	}
	// Learners are silent: a learner ping would register in the voters'
	// failure detectors and inflate their live count past the real quorum.
	if !en.cfg.Learner {
		// Stagger the first ping so nodes do not tick in lockstep.
		en.e.After(time.Duration(en.e.Rand().Int63n(int64(en.cfg.HeartbeatInterval))), ping)
	}
	en.e.After(time.Duration(en.e.Rand().Int63n(int64(en.cfg.SweepInterval))), sweep)
}

// --- Status ------------------------------------------------------------

// FirstUnchosen returns the next instance to be delivered locally.
func (en *Engine) FirstUnchosen() InstanceID { return en.firstUnchosen }

// MaxKnown returns the highest instance this node knows to be decided
// somewhere in the cluster.
func (en *Engine) MaxKnown() InstanceID { return en.maxKnown }

// IsLeader reports whether this node currently leads.
func (en *Engine) IsLeader() bool { return en.leader != nil && en.leader.established }

// CurrentBallot returns the highest leadership ballot seen.
func (en *Engine) CurrentBallot() Ballot { return en.curBallot }

// FastActive reports whether the current ballot runs in fast mode.
func (en *Engine) FastActive() bool { return en.curBallot.Fast }

// AliveCount returns the failure detector's current live-node estimate
// (including this node).
func (en *Engine) AliveCount() int { return en.aliveCount() }

// Backlog returns how many decided-but-undelivered instances this node
// still has to apply — the queue-resynchronization backlog of §5.6.
func (en *Engine) Backlog() int64 { return int64(en.maxKnown - en.firstUnchosen + 1) }

// owner resolves ballot b to the member node that owns it: round-robin
// over the member index, mapped back through the (arbitrary) member IDs.
func (en *Engine) owner(b Ballot) env.NodeID {
	idx := b.Owner(en.n)
	if idx < 0 {
		return -1
	}
	return en.members[idx]
}

func (en *Engine) aliveCount() int {
	now := en.e.Now()
	horizon := 3 * en.cfg.HeartbeatInterval
	alive := 1 // self
	for id, t := range en.lastSeen {
		if id != en.me && now.Sub(t) <= horizon {
			alive++
		}
	}
	return alive
}

// --- Proposer ----------------------------------------------------------

// Submit proposes one application command for total ordering. Commands
// are batched (group commit) and delivered through Config.Deliver on every
// replica. Submit never blocks; flow control is by MaxInFlight batching,
// with queue pressure graded through AdmissionState.
func (en *Engine) Submit(cmd any) {
	if en.cfg.Learner {
		panic("paxos: Submit on a learner engine")
	}
	en.cmdQueue = append(en.cmdQueue, cmd)
	en.queueBytes += en.cfg.CmdSize(cmd)
	en.pump()
}

// queueLen is the number of commands waiting to be proposed.
func (en *Engine) queueLen() int { return len(en.cmdQueue) - en.qHead }

// pump streams queued commands into the proposal pipeline: full batches
// go out while MaxInFlight slots are free, and a leftover partial batch
// is held for up to BatchDelay to give it a chance to fill. Every path
// into the pipeline runs through here, so the in-flight cap is uniform —
// a timer-driven flush can never overshoot the window.
func (en *Engine) pump() {
	for en.queueLen() >= en.cfg.MaxBatchCmds && len(en.outstanding) < en.cfg.MaxInFlight {
		en.proposeNext(en.cfg.MaxBatchCmds)
	}
	if en.queueLen() > 0 && len(en.outstanding) < en.cfg.MaxInFlight && en.batchTimer == nil {
		en.batchTimer = en.e.After(en.cfg.BatchDelay, func() {
			en.batchTimer = nil
			if n := en.queueLen(); n > 0 && len(en.outstanding) < en.cfg.MaxInFlight {
				if n > en.cfg.MaxBatchCmds {
					n = en.cfg.MaxBatchCmds
				}
				en.proposeNext(n)
			}
			en.pump()
		})
	}
	en.compactQueue()
	en.adm.update(en.queueLen(), en.queueBytes)
}

// proposeNext packs the next n queued commands into one value and
// proposes it. The commands are copied out so the ring slots can be
// reclaimed.
func (en *Engine) proposeNext(n int) {
	cmds := make([]any, n)
	copy(cmds, en.cmdQueue[en.qHead:en.qHead+n])
	for i := en.qHead; i < en.qHead+n; i++ {
		en.cmdQueue[i] = nil // release for GC
	}
	en.qHead += n
	var bytes int64
	for _, c := range cmds {
		bytes += en.cfg.CmdSize(c)
	}
	en.queueBytes -= bytes
	en.nextSeq++
	v := Value{
		ID:   ValueID{Node: en.me, Epoch: en.epoch, Seq: en.nextSeq},
		Cmds: cmds,
		Size: bytes + 64,
	}
	en.outstanding[v.ID.Seq] = &pendingValue{v: v, lastSent: en.e.Now()}
	en.propose(v)
}

// compactQueue reclaims the consumed queue prefix: a drained queue resets
// in place, and a large consumed prefix slides the live suffix down —
// amortized O(1) per command, never O(queue) per batch.
func (en *Engine) compactQueue() {
	switch {
	case en.qHead == 0:
	case en.qHead == len(en.cmdQueue):
		en.cmdQueue = en.cmdQueue[:0]
		en.qHead = 0
	case en.qHead > 1024 && en.qHead > len(en.cmdQueue)/2:
		n := copy(en.cmdQueue, en.cmdQueue[en.qHead:])
		tail := en.cmdQueue[n:]
		for i := range tail {
			tail[i] = nil
		}
		en.cmdQueue = en.cmdQueue[:n]
		en.qHead = 0
	}
}

// AdmissionState returns the proposer's current write-admission grade.
// Callers upstream of Submit use it to pace or hold new writes while the
// local backlog is deep.
func (en *Engine) AdmissionState() AdmissionState { return en.adm.state }

// QueueDepth returns the number of commands waiting behind the
// MaxInFlight window (not yet proposed).
func (en *Engine) QueueDepth() int { return en.queueLen() }

// propose routes a value into the protocol according to the current mode.
func (en *Engine) propose(v Value) {
	if !en.booted {
		return
	}
	switch {
	case en.curBallot.Fast && !en.IsLeader():
		// Fast path: straight to the acceptors.
		en.broadcast(fastProposeMsg{V: v})
	case en.IsLeader():
		en.leaderPropose(v)
	default:
		leader := en.owner(en.curBallot)
		if leader >= 0 && leader != en.me {
			en.e.Send(leader, forwardMsg{V: v})
		}
		// With no leader the value stays outstanding and the retry
		// sweep re-proposes it once a leader emerges.
	}
}

// --- Message handling ---------------------------------------------------

// Handle processes a consensus message and reports whether the message
// belonged to this engine. The layer above (internal/core) multiplexes the
// node's Receive between the engine and its own transfer protocol.
func (en *Engine) Handle(from env.NodeID, msg env.Message) bool {
	switch m := msg.(type) {
	case pingMsg:
		en.onPing(from, m)
	case prepareMsg:
		en.onPrepare(from, m)
	case promiseMsg:
		en.onPromise(from, m)
	case nackMsg:
		en.onNack(from, m)
	case acceptMsg:
		en.onAccept(from, m)
	case acceptedMsg:
		en.onAccepted(from, m)
	case chosenMsg:
		en.onChosen(m.Inst, m.V)
	case anyMsg:
		en.onAny(from, m)
	case fastProposeMsg:
		en.onFastPropose(from, m)
	case forwardMsg:
		en.onForward(from, m)
	case recQueryMsg:
		en.onRecQuery(from, m)
	case recInfoMsg:
		en.onRecInfo(from, m)
	case catchUpReqMsg:
		en.onCatchUpReq(from, m)
	case catchUpReplyMsg:
		en.onCatchUpReply(from, m)
	default:
		return false
	}
	return true
}

func (en *Engine) broadcast(msg env.Message) {
	for _, p := range en.members {
		en.e.Send(p, msg)
	}
}

func (en *Engine) sendPing() {
	m := pingMsg{
		B:             en.curBallot,
		Leader:        en.IsLeader(),
		FirstUnchosen: en.firstUnchosen,
	}
	en.broadcast(m)
	// Heartbeats also flow to attached learners so they track the current
	// ballot (catch-up targeting) and the decided frontier. Learners never
	// answer, so this is one-way.
	for _, l := range en.cfg.Learners {
		en.e.Send(l, m)
	}
}

func (en *Engine) onPing(from env.NodeID, m pingMsg) {
	en.lastSeen[from] = en.e.Now()
	en.noteBallot(m.B)
	if m.Leader {
		if en.curBallot.Less(m.B) {
			en.adoptBallot(m.B)
		}
		if m.B == en.curBallot {
			en.lastLeaderSeen = en.e.Now()
		}
	}
	if m.FirstUnchosen-1 > en.maxKnown {
		en.maxKnown = m.FirstUnchosen - 1
	}
}

// adoptBallot records a higher leadership claim and abandons any local
// leadership.
func (en *Engine) adoptBallot(b Ballot) {
	en.curBallot = b
	en.noteBallot(b)
	en.lastLeaderSeen = en.e.Now()
	if en.owner(b) != en.me {
		en.leader = nil
	}
}

// --- Learner -----------------------------------------------------------

func (en *Engine) onChosen(inst InstanceID, v Value) {
	if inst > en.maxKnown {
		en.maxKnown = inst
	}
	if inst < en.firstUnchosen {
		return // already delivered or compacted
	}
	if _, ok := en.chosen[inst]; ok {
		en.advance()
		return
	}
	en.chosen[inst] = v
	if inst >= en.nextFree {
		en.nextFree = inst + 1
	}
	if en.leader != nil {
		en.leader.onDecided(inst)
	}
	en.advance()
}

// advance delivers the contiguous chosen prefix.
func (en *Engine) advance() {
	for {
		v, ok := en.chosen[en.firstUnchosen]
		if !ok {
			break
		}
		inst := en.firstUnchosen
		en.firstUnchosen++
		en.gapSince = time.Time{}
		if pv, mine := en.outstanding[v.ID.Seq]; mine && pv.v.ID == v.ID {
			delete(en.outstanding, v.ID.Seq)
		}
		if !v.NoOp && en.markDelivered(v.ID) {
			en.cfg.Deliver(inst, v)
		}
	}
	en.pump()
}

// markDelivered records a value id and reports whether it was fresh.
func (en *Engine) markDelivered(id ValueID) bool {
	byEpoch := en.delivered[id.Node]
	if byEpoch == nil {
		byEpoch = make(map[int64]*dedupSet)
		en.delivered[id.Node] = byEpoch
	}
	d := byEpoch[id.Epoch]
	if d == nil {
		d = &dedupSet{over: make(map[int64]bool)}
		byEpoch[id.Epoch] = d
	}
	return d.add(id.Seq)
}

// isDelivered reports whether a value id was already applied.
func (en *Engine) isDelivered(id ValueID) bool {
	byEpoch := en.delivered[id.Node]
	if byEpoch == nil {
		return false
	}
	d := byEpoch[id.Epoch]
	return d != nil && d.has(id.Seq)
}

// dedupSet tracks delivered per-node sequence numbers: everything <= base
// plus a sparse overflow set.
type dedupSet struct {
	base int64
	over map[int64]bool
}

// add records seq and reports whether it was new.
func (d *dedupSet) add(seq int64) bool {
	if seq <= d.base || d.over[seq] {
		return false
	}
	d.over[seq] = true
	for d.over[d.base+1] {
		d.base++
		delete(d.over, d.base)
	}
	return true
}

func (d *dedupSet) has(seq int64) bool { return seq <= d.base || d.over[seq] }

// --- Catch-up ----------------------------------------------------------

func (en *Engine) requestCatchUp() {
	if !en.booted {
		return
	}
	en.catchUpAt = en.e.Now()
	target := en.owner(en.curBallot)
	if target < 0 || target == en.me {
		// Pick the lowest-id recently seen member (deterministic).
		for _, id := range en.members {
			t, ok := en.lastSeen[id]
			if ok && id != en.me && en.e.Now().Sub(t) <= 3*en.cfg.HeartbeatInterval {
				target = id
				break
			}
		}
	}
	if target < 0 || target == en.me {
		return
	}
	en.e.Send(target, catchUpReqMsg{From: en.firstUnchosen, Max: catchUpChunk})
}

func (en *Engine) onCatchUpReq(from env.NodeID, m catchUpReqMsg) {
	reply := catchUpReplyMsg{FirstAvail: en.retainedFrom, LastKnown: en.maxKnown}
	start := m.From
	if start < en.retainedFrom {
		start = en.retainedFrom
	}
	for i := start; len(reply.Entries) < m.Max; i++ {
		v, ok := en.chosen[i]
		if !ok {
			break
		}
		reply.Entries = append(reply.Entries, chosenEntry{Inst: i, V: v})
	}
	en.e.Send(from, reply)
}

func (en *Engine) onCatchUpReply(from env.NodeID, m catchUpReplyMsg) {
	if m.LastKnown > en.maxKnown {
		en.maxKnown = m.LastKnown
	}
	gap := m.FirstAvail > en.firstUnchosen && en.firstUnchosen <= en.maxKnown
	for _, e := range m.Entries {
		en.onChosen(e.Inst, e.V)
	}
	if gap && m.FirstAvail > en.firstUnchosen {
		// The peer compacted past what we need: log replay alone
		// cannot re-synchronize this replica.
		if en.cfg.OnCatchUpGap != nil {
			en.cfg.OnCatchUpGap(m.FirstAvail)
		}
		return
	}
	if en.firstUnchosen <= en.maxKnown {
		// Still behind: keep streaming.
		en.requestCatchUp()
	}
}

// SkipTo abandons delivery below floor after an out-of-band state
// transfer (remote checkpoint install): the layer above has already
// restored a state covering all instances < floor.
func (en *Engine) SkipTo(floor InstanceID) {
	if floor <= en.firstUnchosen {
		return
	}
	for i := en.firstUnchosen; i < floor; i++ {
		delete(en.chosen, i)
	}
	en.firstUnchosen = floor
	if en.retainedFrom < floor {
		en.retainedFrom = floor
	}
	if en.nextFree < floor {
		en.nextFree = floor
	}
	en.advance()
	en.requestCatchUp()
}

// DeliveredState is the checkpointable dedup summary: per node and
// incarnation epoch, the highest contiguously applied value sequence.
type DeliveredState map[env.NodeID]map[int64]int64

// SetDelivered seeds the dedup state after a state transfer so commands
// already contained in an installed checkpoint are not re-applied when
// they reappear as duplicates.
func (en *Engine) SetDelivered(state DeliveredState) {
	for node, byEpoch := range state {
		dst := en.delivered[node]
		if dst == nil {
			dst = make(map[int64]*dedupSet)
			en.delivered[node] = dst
		}
		for epoch, seq := range byEpoch {
			d := dst[epoch]
			if d == nil {
				d = &dedupSet{over: make(map[int64]bool)}
				dst[epoch] = d
			}
			if d.base < seq {
				d.base = seq
				for s := range d.over {
					if s <= seq {
						delete(d.over, s)
					}
				}
			}
		}
	}
}

// DeliveredSeqs returns the dedup summary for embedding in checkpoints.
func (en *Engine) DeliveredSeqs() DeliveredState {
	out := make(DeliveredState, len(en.delivered))
	for node, byEpoch := range en.delivered {
		m := make(map[int64]int64, len(byEpoch))
		for epoch, d := range byEpoch {
			m[epoch] = d.base
		}
		out[node] = m
	}
	return out
}

// --- Compaction --------------------------------------------------------

// Compact discards consensus state for instances <= through, which the
// layer above has made durable in an application checkpoint. The open
// acceptor state is re-written as a compaction barrier so the WAL prefix
// can be truncated.
func (en *Engine) Compact(through InstanceID) {
	if through < en.retainedFrom {
		return
	}
	for i := en.retainedFrom; i <= through; i++ {
		delete(en.chosen, i)
		delete(en.accepted, i)
		delete(en.instPromised, i)
	}
	en.retainedFrom = through + 1
	rec := compactRec{
		Floor:        en.retainedFrom,
		Promised:     en.promised,
		InstPromised: make(map[InstanceID]Ballot, len(en.instPromised)),
	}
	for i, b := range en.instPromised {
		rec.InstPromised[i] = b
	}
	var size int64 = 128
	// Sorted export: the compaction barrier is a WAL record, and its
	// accepted list must be byte-identical across replays of the same
	// history (detorder invariant).
	for _, i := range detsort.Keys(en.accepted) {
		a := en.accepted[i]
		rec.Accepted = append(rec.Accepted, a)
		size += 32 + a.V.Size
	}
	barrierIdx := en.records
	en.appendRecord(env.Record{Kind: "compact", Data: rec, Size: size}, func(error) {
		en.e.Storage().Truncate(barrierIdx, nil)
	})
}

// appendRecord writes a durable record through the WAL writer's group
// commit and tracks the global record index.
func (en *Engine) appendRecord(rec env.Record, done func(error)) {
	en.records++
	en.wal.append(rec, done)
}

// --- Housekeeping ------------------------------------------------------

func (en *Engine) sweep() {
	if !en.booted {
		return
	}
	now := en.e.Now()

	// Election: suspect the leader after a staggered timeout. Learners
	// never bid — they observe whichever ballot the voters establish.
	timeout := en.cfg.LeaderTimeout + time.Duration(int64(en.me))*en.cfg.LeaderTimeout/2
	if !en.cfg.Learner && !en.IsLeader() && (en.leader == nil || !en.leader.established) &&
		now.Sub(en.lastLeaderSeen) > timeout && en.aliveCount() >= ClassicQuorum(en.n) {
		if en.leader == nil || now.Sub(en.leader.startedAt) > en.cfg.LeaderTimeout {
			en.startPrepare()
		}
	}

	// Leader duties: mode changes, gap recovery, proposal retries.
	if en.leader != nil && en.leader.established {
		en.leaderSweep(now)
	}

	// Value retries: outstanding batches not yet learned (sorted for
	// deterministic message order).
	var retrySeqs []int64
	for seq, pv := range en.outstanding {
		if now.Sub(pv.lastSent) > retryTimeout {
			retrySeqs = append(retrySeqs, seq)
		}
	}
	sort.Slice(retrySeqs, func(i, j int) bool { return retrySeqs[i] < retrySeqs[j] })
	for _, seq := range retrySeqs {
		pv := en.outstanding[seq]
		pv.lastSent = now
		en.propose(pv.v)
	}

	// Catch-up: behind the cluster or stuck on a gap.
	behind := en.maxKnown >= en.firstUnchosen
	if behind {
		if en.gapSince.IsZero() {
			en.gapSince = now
		}
		stuck := now.Sub(en.gapSince) > 2*en.cfg.SweepInterval
		idle := now.Sub(en.catchUpAt) > 4*en.cfg.SweepInterval
		if stuck && idle {
			en.requestCatchUp()
		}
	} else {
		en.gapSince = time.Time{}
	}
}
