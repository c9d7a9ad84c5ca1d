package main

import (
	"sync/atomic"
	"time"

	"robuststore/internal/core"
	"robuststore/internal/env"
	"robuststore/internal/shard"
	"robuststore/internal/tpcw"
)

// This file is the benchmark's tracing layer. It observes the program
// from outside, through the interfaces the program already exposes: a
// shard.Runtime that wraps every node the store registers, an env.Env and
// env.Storage handed to each node incarnation, and a state machine that
// embeds *tpcw.Store. None of the wrappers draws a random number or
// schedules an event, so on the simulator a traced run's virtual-time
// results are byte-identical to the untraced run's (checked by the
// workloads).

// tracer collects one traced run's per-layer counts and timings. Counters
// are atomic and histograms locked because on the live runtime every node
// calls in from its own goroutine.
type tracer struct {
	sends, sendBytes atomic.Int64
	timers, posts    atomic.Int64
	storageDone      atomic.Int64
	flushes          atomic.Int64
	walRecords       atomic.Int64
	walBytes         atomic.Int64

	durableMs hist // WAL append → durable callback
	receiveUs hist // node Receive self time, machine Execute excluded
	sendUs    hist // wall time inside env.Send
	submitUs  hist // wall time of the store's submit path, window writes

	timeSend bool // live runtime: time Send calls too
}

func newTracer(timeSend bool) *tracer { return &tracer{timeSend: timeSend} }

// events counts the runtime events the traced nodes generated: message
// sends, timers, posts and storage completions.
func (t *tracer) events() int64 {
	return t.sends.Load() + t.timers.Load() + t.posts.Load() + t.storageDone.Load()
}

// nodeRuntime is what a traced store needs from its runtime:
// shard.Runtime plus the scheduling and clock capabilities the store
// looks for.
type nodeRuntime interface {
	shard.Runtime
	After(d time.Duration, fn func())
	Now() time.Time
}

// tracedRuntime wraps every node the store registers.
type tracedRuntime struct {
	nodeRuntime
	t *tracer
}

func (r tracedRuntime) AddNode(factory func() env.Node) env.NodeID {
	return r.nodeRuntime.AddNode(func() env.Node {
		return &tracedNode{inner: factory(), t: r.t}
	})
}

// tracedNode wraps one node incarnation.
type tracedNode struct {
	inner env.Node
	t     *tracer
}

func (n *tracedNode) Start(e env.Env) {
	te := &tracedEnv{Env: e, t: n.t}
	te.st = tracedStorage{Storage: e.Storage(), e: e, t: n.t}
	n.inner.Start(te)
}

// machineOf returns the node's traced state machine, if any. Receive runs
// on the node's executor, where the replica's machine is confined, so the
// lookup does not race with apply.
func (n *tracedNode) machineOf() *tracedMachine {
	if r, ok := n.inner.(interface{ Machine() core.StateMachine }); ok {
		m, _ := r.Machine().(*tracedMachine)
		return m
	}
	return nil
}

func (n *tracedNode) Receive(from env.NodeID, msg env.Message) {
	m := n.machineOf()
	var exec0 int64
	if m != nil {
		exec0 = m.execNs
	}
	t0 := time.Now()
	n.inner.Receive(from, msg)
	self := time.Since(t0).Nanoseconds()
	if m != nil && n.machineOf() == m {
		self -= m.execNs - exec0
	}
	n.t.receiveUs.add(float64(self) / 1e3)
}

// tracedEnv counts what a node asks of its runtime.
type tracedEnv struct {
	env.Env
	t  *tracer
	st tracedStorage
}

func (e *tracedEnv) Send(to env.NodeID, msg env.Message) {
	e.t.sends.Add(1)
	if w, ok := msg.(interface{ WireSize() int64 }); ok {
		e.t.sendBytes.Add(w.WireSize())
	}
	if !e.t.timeSend {
		e.Env.Send(to, msg)
		return
	}
	t0 := time.Now()
	e.Env.Send(to, msg)
	e.t.sendUs.add(float64(time.Since(t0).Nanoseconds()) / 1e3)
}

func (e *tracedEnv) After(d time.Duration, fn func()) env.Timer {
	e.t.timers.Add(1)
	return e.Env.After(d, fn)
}

func (e *tracedEnv) Post(fn func()) {
	e.t.posts.Add(1)
	e.Env.Post(fn)
}

func (e *tracedEnv) Storage() env.Storage { return &e.st }

// tracedStorage times each log append from the call to its durable
// callback, on the runtime's clock (virtual on the simulator).
type tracedStorage struct {
	env.Storage
	e env.Env
	t *tracer
}

func (s *tracedStorage) durable(recs []env.Record, done func(error)) func(error) {
	s.t.flushes.Add(1)
	s.t.walRecords.Add(int64(len(recs)))
	for _, r := range recs {
		s.t.walBytes.Add(r.Size)
	}
	t0 := s.e.Now()
	return func(err error) {
		s.t.storageDone.Add(1)
		s.t.durableMs.add(ms(s.e.Now().Sub(t0)))
		if done != nil {
			done(err)
		}
	}
}

func (s *tracedStorage) Append(rec env.Record, done func(error)) {
	s.Storage.Append(rec, s.durable([]env.Record{rec}, done))
}

func (s *tracedStorage) AppendBatch(recs []env.Record, done func(error)) {
	s.Storage.AppendBatch(recs, s.durable(recs, done))
}

// tracedMachine sums the time spent in Execute, so a node's Receive self
// time can exclude the apply nested in it. Embedding *tpcw.Store keeps
// every optional capability the replica probes for (core.DeltaSnapshotter,
// core.TxnStager, core.PartitionedMachine).
type tracedMachine struct {
	*tpcw.Store
	execNs int64 // executor-confined
}

var (
	_ core.DeltaSnapshotter   = (*tracedMachine)(nil)
	_ core.TxnStager          = (*tracedMachine)(nil)
	_ core.PartitionedMachine = (*tracedMachine)(nil)
)

func (m *tracedMachine) Execute(action any) any {
	t0 := time.Now()
	out := m.Store.Execute(action)
	m.execNs += time.Since(t0).Nanoseconds()
	return out
}

// actionKind names the write action kinds the workloads submit.
func actionKind(action any) string {
	switch action.(type) {
	case tpcw.CartUpdateAction:
		return "cart_update"
	case tpcw.BuyConfirmAction:
		return "buy_confirm"
	default:
		return "other"
	}
}

// storeOf unwraps a replica's state machine to the bookstore.
func storeOf(sm core.StateMachine) *tpcw.Store {
	switch m := sm.(type) {
	case *tpcw.Store:
		return m
	case *tracedMachine:
		return m.Store
	}
	return nil
}
