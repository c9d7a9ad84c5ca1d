package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"robuststore/internal/core"
	"robuststore/internal/detsort"
)

// This file is the live-migration protocol over the epoch-versioned
// routing table: a Migration adds one Paxos group, computes the
// next-epoch table (Grow), streams the moving hash slices from each
// source group to the new one through the ordered log (keyed snapshot
// export → ordered PartitionImport), and cuts over by atomically
// publishing the new epoch. It is the only migration driver; the
// deployment it reshapes is a MigrationHost. Store.Rebalance (keyed
// rows, below) and webtier.Cluster.Rebalance (client sessions) are the
// two hosts.
//
// Correctness argument, phase by phase:
//
//   - boot: the new group's members are registered and started; nothing
//     routes to them yet, so the running workload is untouched.
//   - drain: the moving slices are frozen — the host holds their writes
//     until cutover — and the host waits until every write that could
//     land on a moving key has reached its source's log. An ordered Noop
//     barrier per source group then fences the log: state read after
//     the barrier contains every pre-freeze write.
//   - copy: each source group exports the rows owned by the slices it is
//     losing (a keyed snapshot, read post-barrier on the member that
//     applied the barrier) and the payload is submitted to the new group
//     as an ordered PartitionImport — every new-group replica applies it
//     at the same log position. Imports are idempotent keyed upserts, so
//     the driver can re-submit when a crash hides a completion.
//   - cutover: the next-epoch table is published, then the freeze lifts
//     and held writes flow to their new owners. The
//     client-visible migration window is freeze→cutover and only delays
//     writes to moving keys; reads and all other keys never stall.
//   - cleanup: the host settles its sources (Store drops the moved rows
//     through ordered, idempotent PartitionDrops).
//
// A member crash mid-migration is absorbed by the same mechanisms that
// serve normal traffic: Pick re-targets submissions, the retry sweeps
// re-submit barriers/imports/drops whose completions died with the
// victim, and idempotency makes the re-submission safe.

// Migration phases, in order.
const (
	PhaseBoot    = "boot"    // new group starting, leader electing
	PhaseDrain   = "drain"   // moving slices frozen, sources draining
	PhaseCopy    = "copy"    // keyed snapshots streaming to the new group
	PhaseCleanup = "cleanup" // new epoch live; sources settling
	PhaseDone    = "done"
)

// RebalanceOptions parameterizes one Rebalance call.
type RebalanceOptions struct {
	// OnPhase, if non-nil, observes each phase transition (fault
	// injection hooks into this to crash members mid-migration).
	OnPhase func(phase string)

	// Done, if non-nil, runs when the migration has fully completed
	// (cleanup included) or failed to start.
	Done func(err error)
}

// MigrationStatus is a snapshot of the migration state machine.
type MigrationStatus struct {
	Epoch       int64  // routing epoch currently published
	Active      bool   // a migration is in flight (cleanup included)
	Phase       string // current phase ("" when never migrated)
	NewGroup    int    // group index being added
	MovedSlices int    // hash slices changing owner
	TotalSlices int    // hash slices overall

	// StartedAt..CutoverAt is the client-visible migration window: the
	// interval during which writes to moving keys were delayed.
	// CutoverAt is zero while the window is open.
	StartedAt time.Time
	CutoverAt time.Time
}

// Window returns the client-visible migration window, or 0 while open or
// never started.
func (st MigrationStatus) Window() time.Duration {
	if st.StartedAt.IsZero() || st.CutoverAt.IsZero() {
		return 0
	}
	return st.CutoverAt.Sub(st.StartedAt)
}

// ErrMigrationActive is returned by Rebalance while a previous migration
// is still in flight.
var ErrMigrationActive = errors.New("shard: a migration is already in flight")

// MigrationHost is the deployment a Migration reshapes. The driver owns
// the protocol; the host owns what differs between deployments: how its
// groups are reached, what "booted" and "drained" mean, and how sources
// settle after cutover. Each wait keeps the host's own poll cadence.
type MigrationHost interface {
	// Pick returns a ready replica of group g to submit to, or nil.
	Pick(g int) *core.Replica

	// After and Now are the runtime's scheduler and clock.
	After(d time.Duration, fn func())
	Now() time.Time

	// AwaitBoot calls booted once the new group g can order submissions.
	AwaitBoot(g int, booted func())

	// AwaitDrain calls drained once no write to a slice m holds frozen
	// can still reach a source group's log unseen by the barrier.
	AwaitDrain(m *Migration, drained func())

	// Publish installs the next routing table. The driver lifts the
	// freeze only after Publish returns, so routing that checks the
	// freeze before it reads the table never sends a moving slice's
	// write to the old owner.
	Publish(next RoutingTable)

	// Cleanup runs after cutover and calls done once the sources have
	// settled.
	Cleanup(m *Migration, done func())
}

// Migration is one run of the driver state machine. Fields are guarded by
// mu; the driver advances through host-scheduled callbacks (After) and
// replica-executor completions, so it never blocks an executor.
type Migration struct {
	host     MigrationHost
	opts     RebalanceOptions
	newGroup int
	prev     RoutingTable
	next     RoutingTable
	moved    []int         // slices moving to the new group
	sources  []int         // groups losing slices, ascending
	bySource map[int][]int // source group → its moving slices

	mu        sync.Mutex
	phase     string          // guarded by mu
	frozen    map[int]bool    // guarded by mu; slice → frozen (handoff in progress)
	held      []func()        // guarded by mu; work released at cutover
	startedAt time.Time       // guarded by mu
	cutoverAt time.Time       // guarded by mu
	pendingOp map[string]bool // guarded by mu; in-flight ordered ops, by name
}

// NewMigration plans the growth of prev by one group (index
// prev.Groups()). The host registers the new group, records the
// migration where its routing can see Frozen, and then calls Start.
func NewMigration(h MigrationHost, prev RoutingTable, opts RebalanceOptions) *Migration {
	newGroup := prev.Groups()
	next, moved := prev.Grow(newGroup)
	m := &Migration{
		host:      h,
		opts:      opts,
		newGroup:  newGroup,
		prev:      prev,
		next:      next,
		moved:     moved,
		bySource:  make(map[int][]int),
		phase:     PhaseBoot,
		frozen:    make(map[int]bool),
		pendingOp: make(map[string]bool),
	}
	for _, sl := range moved {
		m.bySource[prev.Assign[sl]] = append(m.bySource[prev.Assign[sl]], sl)
	}
	m.sources = detsort.Keys(m.bySource)
	return m
}

// Start enters the boot phase and waits for the new group.
func (m *Migration) Start() {
	m.enterPhase(PhaseBoot)
	m.host.AwaitBoot(m.newGroup, m.freeze)
}

// Status reports the migration's progress. Epoch is left to the host,
// which owns the published table.
func (m *Migration) Status() MigrationStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MigrationStatus{
		Active:      m.phase != PhaseDone,
		Phase:       m.phase,
		NewGroup:    m.newGroup,
		MovedSlices: len(m.moved),
		TotalSlices: len(m.next.Assign),
		StartedAt:   m.startedAt,
		CutoverAt:   m.cutoverAt,
	}
}

// Frozen reports whether a hash slice is held mid-handoff: its writes
// must wait for the next epoch.
func (m *Migration) Frozen(slice int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.frozen[slice]
}

// hold queues fn to run right after cutover if slice is frozen. It
// reports false if the freeze already lifted (the caller then routes
// through the published table).
func (m *Migration) hold(slice int, fn func()) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.frozen[slice] {
		return false
	}
	m.held = append(m.held, fn)
	return true
}

func (m *Migration) enterPhase(phase string) {
	m.mu.Lock()
	m.phase = phase
	m.mu.Unlock()
	if m.opts.OnPhase != nil {
		m.opts.OnPhase(phase)
	}
}

// orderedOp submits one ordered action to group g until a completion is
// observed, then calls then(replica) on the completing replica's
// executor, exactly once. Submissions that die with a crashed member are
// re-issued by a sweep; the actions involved (Noop, PartitionImport,
// PartitionDrop) are idempotent, so a resubmission racing a hidden
// completion is safe.
func (m *Migration) orderedOp(name string, g int, action func() any, then func(r *core.Replica)) {
	m.mu.Lock()
	m.pendingOp[name] = true
	m.mu.Unlock()
	complete := func(r *core.Replica) {
		m.mu.Lock()
		first := m.pendingOp[name]
		delete(m.pendingOp, name)
		m.mu.Unlock()
		if first {
			then(r)
		}
	}
	var attempt func()
	attempt = func() {
		m.mu.Lock()
		pending := m.pendingOp[name]
		m.mu.Unlock()
		if !pending {
			return
		}
		if r := m.host.Pick(g); r != nil {
			r.SubmitFrom(action(), func(_ any, err error) {
				if err == nil {
					complete(r)
				}
			})
		}
		m.host.After(500*time.Millisecond, attempt)
	}
	attempt()
}

// countdown returns a func that calls done on its n-th call, from any
// goroutine.
func countdown(n int, done func()) func() {
	var left atomic.Int64
	left.Store(int64(n))
	return func() {
		if left.Add(-1) == 0 {
			done()
		}
	}
}

// --- Phases -------------------------------------------------------------

// freeze opens the migration window: writes to moving slices are held
// from here until cutover.
func (m *Migration) freeze() {
	now := m.host.Now()
	m.mu.Lock()
	for _, sl := range m.moved {
		m.frozen[sl] = true
	}
	m.startedAt = now
	m.mu.Unlock()
	m.enterPhase(PhaseDrain)
	m.host.AwaitDrain(m, m.fence)
}

// fence orders a barrier into each drained source log and exports behind
// it.
func (m *Migration) fence() {
	m.enterPhase(PhaseCopy)
	if len(m.sources) == 0 {
		// Degenerate: nothing moves (a table grown past its slice count
		// sheds no load).
		m.cutover()
		return
	}
	copied := countdown(len(m.sources), m.cutover)
	for _, g := range m.sources {
		g := g
		m.orderedOp(fmt.Sprintf("barrier/%d", g), g, func() any { return core.Noop{} },
			func(r *core.Replica) { m.export(g, r, copied) })
	}
}

// export runs on the executor of the source replica that applied the
// barrier: its machine now contains every pre-freeze write to the moving
// slices, which cannot change again until cutover. The keyed snapshot is
// then shipped to the new group as an ordered import (or the handoff
// completes at once for machines without the partition capability — a
// routing-only migration).
func (m *Migration) export(g int, r *core.Replica, copied func()) {
	var data any
	var size int64
	if pm, ok := r.Machine().(core.PartitionedMachine); ok {
		data, size = pm.ExportOwned(m.prev.Owned(m.bySource[g]))
	}
	// Hop off the source executor before submitting elsewhere.
	m.host.After(0, func() {
		if data == nil {
			copied()
			return
		}
		m.orderedOp(fmt.Sprintf("import/%d", g), m.newGroup,
			func() any {
				return core.PartitionImport{Epoch: m.next.Epoch, Source: g, Data: data, Size: size}
			},
			func(*core.Replica) { m.host.After(0, copied) })
	})
}

// cutover publishes the next-epoch table, then closes the migration
// window, releases the held work, and lets the host clean up.
func (m *Migration) cutover() {
	m.host.Publish(m.next)
	now := m.host.Now()
	m.mu.Lock()
	m.cutoverAt = now
	m.frozen = make(map[int]bool)
	held := m.held
	m.held = nil
	m.mu.Unlock()
	m.enterPhase(PhaseCleanup)
	for _, fn := range held {
		fn()
	}
	m.host.Cleanup(m, m.finish)
}

func (m *Migration) finish() {
	m.enterPhase(PhaseDone)
	if m.opts.Done != nil {
		m.opts.Done(nil)
	}
}

// --- The Store host -----------------------------------------------------

// Migration returns the current (or last) migration's status. Safe from
// any goroutine.
func (s *Store) Migration() MigrationStatus {
	var st MigrationStatus
	if m := s.mig.Load(); m != nil {
		st = m.Status()
	}
	st.Epoch = s.Epoch()
	return st
}

// Rebalance adds one Paxos group to the store and live-migrates its share
// of the hash space to it, publishing the next routing epoch at cutover.
// It returns immediately; progress is event-driven (observe it via
// RebalanceOptions or Migration). Requires a Runtime with After and Now
// (both runtimes have them). Safe to call from simulator events or from
// any goroutine on the live runtime.
func (s *Store) Rebalance(opts RebalanceOptions) {
	fail := func(err error) {
		if opts.Done != nil {
			opts.Done(err)
		}
	}
	d, ok := s.rt.(delayer)
	if !ok {
		fail(errors.New("shard: Rebalance needs a Runtime with After"))
		return
	}
	// Phases are stamped from the runtime clock, never time.Now: the wall
	// clock inside sim runs is a nondeterminism leak the walltime
	// analyzer rejects.
	n, ok := s.rt.(nower)
	if !ok {
		fail(errors.New("shard: Rebalance needs a Runtime with Now"))
		return
	}
	// One migration at a time: the active check, group registration and
	// publication below are a single serialized step, so two concurrent
	// Rebalance calls cannot both pass the check or lose an append.
	s.rebalMu.Lock()
	defer s.rebalMu.Unlock()
	if m := s.mig.Load(); m != nil && m.Status().Active {
		fail(ErrMigrationActive)
		return
	}

	m := NewMigration(storeHost{s: s, delayer: d, nower: n}, s.Table(), opts)
	// Register and boot the new group, then extend the group list. The
	// table still maps nothing to it, so it serves no traffic yet.
	grp := s.buildGroup(s.Shards())
	for _, id := range grp.ids {
		s.rt.Restart(id)
	}
	groups := append(append([]*Group(nil), s.groupList()...), grp)
	s.groups.Store(&groups)
	s.mig.Store(m)
	m.Start()
}

// storeHost is the Store's side of a migration: keyed rows are the
// partition unit, Submit holds frozen writes (see Submit) and Execute
// drains through the per-group in-flight counters.
type storeHost struct {
	s *Store
	delayer
	nower
}

func (h storeHost) Pick(g int) *core.Replica { return h.s.groupList()[g].pick() }

// AwaitBoot polls until the new group has a ready member that observed an
// elected leader.
func (h storeHost) AwaitBoot(g int, booted func()) {
	if r := h.Pick(g); r != nil && r.HasLeader() {
		booted()
		return
	}
	h.After(20*time.Millisecond, func() { h.AwaitBoot(g, booted) })
}

// AwaitDrain flips the drain phase, then waits for every source group's
// pre-freeze in-flight Execute count to reach zero. Flipping after the
// freeze makes the old phase's counters strictly draining: new Executes
// charge the other phase (and moving-key ones back off at their
// re-check), so the wait is bounded even under sustained load.
func (h storeHost) AwaitDrain(m *Migration, drained func()) {
	old := h.s.drainPhase.Load()
	h.s.drainPhase.Store(1 - old)
	var poll func()
	poll = func() {
		groups := h.s.groupList()
		for _, g := range m.sources {
			if groups[g].inflight[old].Load() != 0 {
				h.After(time.Millisecond, poll)
				return
			}
		}
		drained()
	}
	poll()
}

func (h storeHost) Publish(next RoutingTable) { h.s.table.Store(&next) }

// Cleanup sheds the moved rows from every source group through ordered
// PartitionDrops (idempotent, retried like the imports).
func (h storeHost) Cleanup(m *Migration, done func()) {
	if len(m.sources) == 0 {
		done()
		return
	}
	dropped := countdown(len(m.sources), done)
	for _, g := range m.sources {
		g := g
		m.orderedOp(fmt.Sprintf("drop/%d", g), g,
			func() any { return core.PartitionDrop{Epoch: m.next.Epoch, Owned: m.prev.Owned(m.bySource[g])} },
			func(*core.Replica) { h.After(0, dropped) })
	}
}
