package paxos

import (
	"sort"
	"time"

	"robuststore/internal/detsort"
	"robuststore/internal/env"
)

// This file implements the leader/coordinator role: phase 1 over the open
// instance range, classic phase 2, fast-round vote counting, collision
// detection and coordinated recovery, and gap repair.

type leaderState struct {
	b           Ballot
	startedAt   time.Time
	established bool
	prepFrom    InstanceID
	promises    map[env.NodeID]promiseMsg

	nextInstance InstanceID
	anySent      bool

	inflight   map[InstanceID]*proposal // phase 2 in progress (classic or recovery)
	inflightID map[ValueID]InstanceID
	fastVotes  map[InstanceID]*voteSet
	recs       map[InstanceID]*recState
	recSeq     int64
	openSince  map[InstanceID]time.Time // when a gap instance was first noticed
	lastModeAt time.Time
	maxVote    InstanceID
}

type proposal struct {
	b        Ballot
	inst     InstanceID
	v        Value
	acks     map[env.NodeID]bool
	lastSent time.Time
}

type voteSet struct {
	votes   map[env.NodeID]ValueID
	values  map[ValueID]Value
	firstAt time.Time
}

type recState struct {
	b        Ballot
	replies  map[env.NodeID]recInfoMsg
	started  time.Time
	proposed bool
}

// valueIDLess orders value ids (node, epoch, seq) for deterministic
// tie-breaking.
func valueIDLess(a, b ValueID) bool {
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	if a.Epoch != b.Epoch {
		return a.Epoch < b.Epoch
	}
	return a.Seq < b.Seq
}

// onDecided clears leader bookkeeping for a decided instance.
func (ls *leaderState) onDecided(inst InstanceID) {
	if p, ok := ls.inflight[inst]; ok {
		delete(ls.inflightID, p.v.ID)
	}
	delete(ls.inflight, inst)
	delete(ls.fastVotes, inst)
	delete(ls.recs, inst)
	delete(ls.openSince, inst)
	if ls.nextInstance <= inst {
		ls.nextInstance = inst + 1
	}
}

// BugStaleLeaderRejoin, when true, reverts the stale-leader-rejoin fix
// (both halves: the bid no longer claims curBallot locally, and acceptors
// no longer nack the coordinator of a superseded fast round),
// reintroducing the livelock the partition faultloads once exposed. It exists only as a
// known-bad toggle for the generative fault search: a hunt against a
// build with this set must find the wedge, shrink the schedule and pin
// it — the test proving the search harness catches real regressions.
// Never set outside tests.
var BugStaleLeaderRejoin bool

// startPrepare begins a leadership bid with a fresh ballot. The ballot is
// fast when Fast Paxos is enabled and at least ⌈3N/4⌉ replicas look alive,
// classic otherwise — the Treplica mode rule of §2.
func (en *Engine) startPrepare() {
	seq := nextOwnedBallot(en.maxBallotSeq, env.NodeID(en.myIdx), en.n)
	fast := en.cfg.FastEnabled && en.aliveCount() >= FastQuorum(en.n)
	b := Ballot{Seq: seq, Fast: fast}
	en.noteBallot(b)
	// Our own bid is the highest leadership ballot we have seen: claim it
	// locally. Without this, a heartbeat from the OLD leader — at a
	// ballot between our stale curBallot and our bid — would "adopt" that
	// older leadership and nil the bid just as the acceptors promise it,
	// leaving the cluster promised to a ballot nobody owns (the
	// stale-leader-rejoin livelock the partition faultloads exposed:
	// every fast proposal is then silently dropped forever).
	if !BugStaleLeaderRejoin {
		en.curBallot = b
	}
	en.leader = &leaderState{
		b:          b,
		startedAt:  en.e.Now(),
		prepFrom:   en.firstUnchosen,
		promises:   make(map[env.NodeID]promiseMsg),
		inflight:   make(map[InstanceID]*proposal),
		inflightID: make(map[ValueID]InstanceID),
		fastVotes:  make(map[InstanceID]*voteSet),
		recs:       make(map[InstanceID]*recState),
		openSince:  make(map[InstanceID]time.Time),
		lastModeAt: en.e.Now(),
	}
	en.e.Logf("prepare ballot %v from %d", b, en.leader.prepFrom)
	en.broadcast(prepareMsg{B: b, From: en.leader.prepFrom})
}

func (en *Engine) onPromise(from env.NodeID, m promiseMsg) {
	ls := en.leader
	if ls == nil || ls.established || m.B != ls.b {
		return
	}
	ls.promises[from] = m
	if len(ls.promises) >= ClassicQuorum(en.n) {
		en.establish()
	}
}

// establish completes phase 1: pick safe values for every instance
// reported by the promise quorum, re-propose them, fill gaps with no-ops,
// open the fast range if the ballot is fast, and flush pending client
// values.
func (en *Engine) establish() {
	ls := en.leader
	ls.established = true
	en.adoptBallot(ls.b)
	en.e.Logf("established ballot %v", ls.b)

	// Group reports by instance, folding promises in member order: the
	// per-instance report lists feed selectValue, and map order here is
	// exactly the PR-6 establish() bug (outstanding values re-proposed in
	// map order across a leader change, breaking FIFO).
	byInst := make(map[InstanceID][]acceptedInfo)
	maxInst := ls.prepFrom - 1
	for _, from := range detsort.Keys(ls.promises) {
		for _, a := range ls.promises[from].Accepted {
			byInst[a.Inst] = append(byInst[a.Inst], a)
			if a.Inst > maxInst {
				maxInst = a.Inst
			}
		}
	}
	ls.nextInstance = maxInst + 1
	if ls.nextInstance < ls.prepFrom {
		ls.nextInstance = ls.prepFrom
	}

	// Decide what to propose at every open instance.
	insts := make([]InstanceID, 0, len(byInst))
	for i := range byInst {
		insts = append(insts, i)
	}
	sort.Slice(insts, func(a, b int) bool { return insts[a] < insts[b] })
	q := len(ls.promises)
	var noopSeq int64
	for i := ls.prepFrom; i < ls.nextInstance; i++ {
		if v, ok := en.chosen[i]; ok {
			// Already decided: just re-announce.
			en.announceChosen(i, v)
			continue
		}
		reports := byInst[i]
		v, found := selectValue(reports, q, en.n)
		if !found {
			noopSeq++
			v = noOpValue(en.me, en.epoch, en.nextSeq*1000+noopSeq)
		}
		en.classicPropose(i, ls.b, v)
	}

	if ls.b.Fast {
		ls.anySent = true
		en.broadcast(anyMsg{B: ls.b, From: ls.nextInstance})
	}

	// Re-propose our own outstanding values — in submission order, not
	// map order, so values that have never reached an instance yet are
	// assigned consecutive slots FIFO — and drain the local queue.
	seqs := make([]int64, 0, len(en.outstanding))
	for seq := range en.outstanding {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		pv := en.outstanding[seq]
		pv.lastSent = en.e.Now()
		en.propose(pv.v)
	}
	en.pump()
}

// selectValue applies the phase-1 value-selection rule to the reports a
// promise quorum of size q (out of n) made for one instance. For a
// classic top ballot the unique reported value is mandatory; for a fast
// top ballot value v is choosable iff at least q+⌈3n/4⌉−n quorum members
// voted v in it (Fast Paxos, Prop. 1); with no choosable value any
// reported value is safe, and with no reports at all nothing was chosen,
// so found=false lets the caller propose anything (a no-op).
func selectValue(reports []acceptedInfo, q, n int) (Value, bool) {
	if len(reports) == 0 {
		return Value{}, false
	}
	k := ballotNone
	for _, r := range reports {
		if k.Less(r.B) {
			k = r.B
		}
	}
	var atK []acceptedInfo
	for _, r := range reports {
		if r.B == k {
			atK = append(atK, r)
		}
	}
	if !k.Fast {
		return atK[0].V, true
	}
	counts := make(map[ValueID]int)
	values := make(map[ValueID]Value)
	for _, r := range atK {
		counts[r.V.ID]++
		values[r.V.ID] = r.V
	}
	threshold := q + FastQuorum(n) - n
	var bestID ValueID
	best := -1
	for id, c := range counts {
		if c >= threshold && (c > best || (c == best && valueIDLess(id, bestID))) {
			best = c
			bestID = id
		}
	}
	if best >= 0 {
		return values[bestID], true
	}
	// No value may have been (or can be) chosen at k: free choice.
	// Re-proposing one of the reported values keeps client progress;
	// ties break on ValueID for determinism.
	most := atK[0]
	mostCount := counts[most.V.ID]
	for _, r := range atK {
		c := counts[r.V.ID]
		if c > mostCount || (c == mostCount && valueIDLess(r.V.ID, most.V.ID)) {
			mostCount = c
			most = r
		}
	}
	return most.V, true
}

// leaderPropose assigns a value to a fresh instance (classic) or sends it
// down the fast path when a fast round is open.
func (en *Engine) leaderPropose(v Value) {
	ls := en.leader
	if ls == nil || !ls.established {
		return
	}
	if en.isDelivered(v.ID) {
		return // duplicate of an already applied value
	}
	if _, dup := ls.inflightID[v.ID]; dup {
		return // already being proposed
	}
	if ls.b.Fast && ls.anySent {
		en.broadcast(fastProposeMsg{V: v})
		return
	}
	inst := ls.nextInstance
	ls.nextInstance++
	en.classicPropose(inst, ls.b, v)
}

func (en *Engine) classicPropose(inst InstanceID, b Ballot, v Value) {
	ls := en.leader
	p := &proposal{b: b, inst: inst, v: v, acks: make(map[env.NodeID]bool), lastSent: en.e.Now()}
	ls.inflight[inst] = p
	ls.inflightID[v.ID] = inst
	en.broadcast(acceptMsg{B: b, Inst: inst, V: v})
}

func (en *Engine) onForward(from env.NodeID, m forwardMsg) {
	if en.leader != nil && en.leader.established {
		en.leaderPropose(m.V)
	}
}

// onAccepted counts phase-2b votes: acknowledgements of classic or
// recovery proposals, and fast-round self-assigned votes.
func (en *Engine) onAccepted(from env.NodeID, m acceptedMsg) {
	ls := en.leader
	if ls == nil || !ls.established {
		return
	}
	if m.Inst < en.firstUnchosen {
		return // stale: already decided and delivered
	}
	if _, done := en.chosen[m.Inst]; done {
		return
	}
	if p, ok := ls.inflight[m.Inst]; ok && p.b == m.B {
		p.acks[from] = true
		if len(p.acks) >= quorum(p.b, en.n) {
			en.choose(m.Inst, p.v)
		}
		return
	}
	if ls.b.Fast && m.B == ls.b {
		en.onFastVote(from, m)
	}
}

func (en *Engine) onFastVote(from env.NodeID, m acceptedMsg) {
	ls := en.leader
	vs := ls.fastVotes[m.Inst]
	if vs == nil {
		vs = &voteSet{
			votes:   make(map[env.NodeID]ValueID),
			values:  make(map[ValueID]Value),
			firstAt: en.e.Now(),
		}
		ls.fastVotes[m.Inst] = vs
	}
	if m.Inst > ls.maxVote {
		ls.maxVote = m.Inst
	}
	if _, dup := vs.votes[from]; dup {
		return // one vote per acceptor per fast round
	}
	vs.votes[from] = m.V.ID
	vs.values[m.V.ID] = m.V

	counts := make(map[ValueID]int)
	best, total := 0, 0
	var bestID ValueID
	for _, id := range vs.votes {
		counts[id]++
		total++
		if counts[id] > best {
			best = counts[id]
			bestID = id
		}
	}
	fq := FastQuorum(en.n)
	switch {
	case best >= fq:
		en.choose(m.Inst, vs.values[bestID])
	case best+(en.n-total) < fq:
		// Collision: no value can reach a fast quorum any more.
		en.startRecovery(m.Inst)
	}
}

// startRecovery runs coordinated recovery for one instance: a
// per-instance classic round at a fresh ballot owned by this coordinator,
// seeded with the acceptors' existing votes (recQuery/recInfo), then a
// classic phase 2 with the selected value.
func (en *Engine) startRecovery(inst InstanceID) {
	ls := en.leader
	if ls == nil || !ls.established {
		return
	}
	if r, ok := ls.recs[inst]; ok && en.e.Now().Sub(r.started) < retryTimeout {
		return // one attempt at a time
	}
	after := en.maxBallotSeq
	if ls.recSeq > after {
		after = ls.recSeq
	}
	ls.recSeq = nextOwnedBallot(after, env.NodeID(en.myIdx), en.n)
	b := Ballot{Seq: ls.recSeq} // recovery rounds are classic
	en.noteBallot(b)
	ls.recs[inst] = &recState{b: b, replies: make(map[env.NodeID]recInfoMsg), started: en.e.Now()}
	en.broadcast(recQueryMsg{B: b, Inst: inst})
}

func (en *Engine) onRecInfo(from env.NodeID, m recInfoMsg) {
	ls := en.leader
	if ls == nil || !ls.established {
		return
	}
	rec, ok := ls.recs[m.Inst]
	if !ok || rec.b != m.B || rec.proposed {
		return
	}
	rec.replies[from] = m
	if len(rec.replies) < ClassicQuorum(en.n) {
		return
	}
	rec.proposed = true
	// Fold the recovery quorum in member order: selectValue's choice must
	// not depend on map iteration (detorder invariant).
	var reports []acceptedInfo
	for _, from := range detsort.Keys(rec.replies) {
		if r := rec.replies[from]; r.Voted {
			reports = append(reports, acceptedInfo{Inst: r.Inst, B: r.VB, V: r.V})
		}
	}
	v, found := selectValue(reports, len(rec.replies), en.n)
	if !found {
		v = noOpValue(en.me, en.epoch, en.nextSeq*1000+int64(m.Inst%997)+1)
	}
	en.classicPropose(m.Inst, rec.b, v)
}

// choose finalizes an instance and announces it to every learner.
func (en *Engine) choose(inst InstanceID, v Value) {
	if _, ok := en.chosen[inst]; ok {
		return
	}
	en.announceChosen(inst, v)
}

// announceChosen broadcasts a decided instance to the voting members and
// forwards it to any attached non-voting learners, which otherwise only
// hear about decisions through catch-up.
func (en *Engine) announceChosen(inst InstanceID, v Value) {
	m := chosenMsg{Inst: inst, V: v}
	en.broadcast(m)
	for _, l := range en.cfg.Learners {
		en.e.Send(l, m)
	}
}

func (en *Engine) onNack(from env.NodeID, m nackMsg) {
	en.noteBallot(m.Promised)
	if en.leader != nil && en.leader.b.Less(m.Promised) &&
		en.owner(m.Promised) != en.me {
		// Someone outpaced us; stand down and let their round proceed.
		en.leader = nil
		en.lastLeaderSeen = en.e.Now() // back off before re-electing
	}
}

// leaderSweep performs periodic leader duties.
func (en *Engine) leaderSweep(now time.Time) {
	ls := en.leader

	// Mode management: switch between fast and classic rounds as the
	// failure detector's live count crosses ⌈3N/4⌉.
	desiredFast := en.cfg.FastEnabled && en.aliveCount() >= FastQuorum(en.n)
	if desiredFast != ls.b.Fast && now.Sub(ls.lastModeAt) > time.Second {
		en.e.Logf("mode change: fast=%v alive=%d", desiredFast, en.aliveCount())
		en.startPrepare()
		return
	}

	// Retry stalled phase-2 proposals (lost messages, recovering
	// acceptors); iterate in instance order for determinism.
	var stalled []InstanceID
	for inst, p := range ls.inflight {
		if now.Sub(p.lastSent) > retryTimeout {
			stalled = append(stalled, inst)
		}
	}
	sort.Slice(stalled, func(i, j int) bool { return stalled[i] < stalled[j] })
	for _, inst := range stalled {
		p := ls.inflight[inst]
		p.lastSent = now
		en.broadcast(acceptMsg{B: p.b, Inst: p.inst, V: p.v})
	}

	// Gap repair: any instance below the frontier that stays undecided
	// blocks delivery everywhere; recover it.
	frontier := ls.nextInstance - 1
	if ls.maxVote > frontier {
		frontier = ls.maxVote
	}
	if en.maxKnown > frontier {
		frontier = en.maxKnown
	}
	const scanWindow = 256
	scanned := 0
	for i := en.firstUnchosen; i <= frontier && scanned < scanWindow; i++ {
		scanned++
		if _, done := en.chosen[i]; done {
			continue
		}
		if _, busy := ls.inflight[i]; busy {
			continue
		}
		if r, busy := ls.recs[i]; busy && now.Sub(r.started) < retryTimeout {
			continue
		}
		if vs, ok := ls.fastVotes[i]; ok {
			if now.Sub(vs.firstAt) > fastDecisionTimeout {
				en.startRecovery(i)
			}
			continue
		}
		first, seen := ls.openSince[i]
		if !seen {
			ls.openSince[i] = now
			continue
		}
		if now.Sub(first) > 2*fastDecisionTimeout {
			en.startRecovery(i)
		}
	}
}
