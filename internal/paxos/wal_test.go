package paxos

import (
	"fmt"
	"testing"
	"time"

	"robuststore/internal/env"
	"robuststore/internal/sim"
)

// TestWALReplayRestoresAcceptorState: a crashed acceptor must come back
// with its promises and votes intact (never contradicting its earlier
// replies). We crash a node right after it voted, restart it, and have a
// new leader rely on its reported state.
func TestWALReplayRestoresAcceptorState(t *testing.T) {
	c := newCluster(t, 3, false, 71, sim.NetConfig{})
	c.submit(2*time.Second, 0, "a")
	c.submit(2100*time.Millisecond, 1, "b")
	c.s.RunFor(5 * time.Second)

	// Crash node 2 (an acceptor), restart it: its WAL must reproduce
	// its accepted map.
	before := len(c.engines[2].accepted)
	if before == 0 {
		t.Fatal("node 2 accepted nothing before crash")
	}
	c.s.Crash(2)
	c.s.Restart(2)
	c.s.RunFor(3 * time.Second)
	after := c.engines[2]
	if len(after.accepted) < before {
		t.Fatalf("WAL replay lost votes: %d < %d", len(after.accepted), before)
	}
	if after.promised.Seq < 0 {
		t.Fatal("WAL replay lost the promise")
	}
	c.checkConsistency()
}

// TestCompactRecBarrier: after Compact, a restart replays only the
// compaction barrier plus later records, and the acceptor state for open
// instances survives.
func TestCompactRecBarrier(t *testing.T) {
	c := newCluster(t, 3, false, 72, sim.NetConfig{})
	const total = 40
	for i := 0; i < total; i++ {
		c.submit(2*time.Second+time.Duration(i)*20*time.Millisecond, i%3,
			fmt.Sprintf("cmd-%d", i))
	}
	c.s.RunFor(8 * time.Second)

	en := c.engines[1]
	through := en.FirstUnchosen() - 5
	c.s.At(c.s.Now(), func() { en.Compact(through) })
	c.s.RunFor(2 * time.Second)

	// The WAL on disk must have been truncated at the barrier.
	if fi := c.s.Storage(1).FirstIndex(); fi == 0 {
		t.Fatal("storage was not truncated")
	}
	// Chosen entries below the floor are gone; later ones retained.
	if _, ok := en.chosen[through]; ok {
		t.Fatal("compacted chosen entry retained")
	}
	if _, ok := en.chosen[through+1]; !ok {
		t.Fatal("retained chosen entry missing")
	}

	// Restart and make sure the node still works (replays from the
	// barrier) and the cluster keeps agreeing.
	c.s.Crash(1)
	c.s.Restart(1)
	c.submit(time.Second, 0, "post-compact")
	c.s.RunFor(10 * time.Second)
	c.checkConsistency()
	if len(c.delivered[0]) != total+1 {
		t.Fatalf("node 0 delivered %d, want %d", len(c.delivered[0]), total+1)
	}
}

// TestBackpressurePacksBatches: with MaxInFlight saturated, queued
// commands must be packed into multi-command batches rather than
// one-per-value (the group-commit growth that keeps per-message overhead
// bounded under load).
func TestBackpressurePacksBatches(t *testing.T) {
	batches := make(map[int]int) // batch size -> count
	c := &testCluster{
		t:         t,
		n:         3,
		engines:   make([]*Engine, 3),
		delivered: make([][]string, 3),
		instOf:    make([]map[InstanceID]string, 3),
	}
	c.s = sim.New(sim.Config{Seed: 73})
	for i := 0; i < 3; i++ {
		id := i
		c.s.AddNode(func() env.Node { return &engineNode{c: c, id: id} })
	}
	testFast = false
	c.s.StartAll()

	// Wrap node 0's deliver to record batch sizes.
	c.s.After(time.Second, func() {
		en := c.engines[0]
		orig := en.cfg.Deliver
		en.cfg.Deliver = func(inst InstanceID, v Value) {
			batches[len(v.Cmds)]++
			orig(inst, v)
		}
	})
	// Burst 300 commands at one node in a tight window.
	c.s.After(2*time.Second, func() {
		for i := 0; i < 300; i++ {
			c.engines[0].Submit(fmt.Sprintf("cmd-%d", i))
		}
	})
	c.s.RunFor(20 * time.Second)
	c.checkConsistency()
	if got := len(c.delivered[0]); got != 300 {
		t.Fatalf("delivered %d, want 300", got)
	}
	multi := 0
	for size, n := range batches {
		if size > 1 {
			multi += n
		}
	}
	if multi == 0 {
		t.Fatalf("no multi-command batches under burst load: %v", batches)
	}
}

// TestSubmitWhileUnbooted: commands submitted before the WAL replay
// finishes must not be lost (they batch and go out once booted).
func TestSubmitWhileUnbooted(t *testing.T) {
	c := newCluster(t, 3, false, 74, sim.NetConfig{})
	// Submit immediately — the engines boot asynchronously (disk read).
	c.s.At(c.s.Now(), func() {
		if en := c.engines[0]; en != nil {
			en.Submit("early")
		}
	})
	c.s.RunFor(8 * time.Second)
	for id := 0; id < 3; id++ {
		c.requireDelivered(id, 1)
	}
}

// countingStorage wraps a node's storage and records every WAL write the
// walWriter issues, and how many records storage has acknowledged durable.
type countingStorage struct {
	env.Storage
	appends int     // single-record Append calls
	batches [][]int // record sequence numbers per AppendBatch call
	durable int     // records whose AppendBatch completed
}

func (c *countingStorage) Append(rec env.Record, done func(error)) {
	c.appends++
	c.Storage.Append(rec, done)
}

func (c *countingStorage) AppendBatch(recs []env.Record, done func(error)) {
	seqs := make([]int, len(recs))
	for i, r := range recs {
		seqs[i] = r.Data.(int)
	}
	c.batches = append(c.batches, seqs)
	c.Storage.AppendBatch(recs, func(err error) {
		c.durable += len(recs)
		if done != nil {
			done(err)
		}
	})
}

// countingEnv hands the walWriter the counting storage.
type countingEnv struct {
	env.Env
	st *countingStorage
}

func (e countingEnv) Storage() env.Storage { return e.st }

// walNode runs a bare walWriter over the counting storage.
type walNode struct {
	e  env.Env
	st *countingStorage
	w  *walWriter
}

func (n *walNode) Start(e env.Env) {
	n.e = e
	n.st = &countingStorage{Storage: e.Storage()}
	n.w = &walWriter{e: countingEnv{Env: e, st: n.st}}
}

func (n *walNode) Receive(env.NodeID, env.Message) {}

// walRig is one simulated node with a 10 ms flush.
func walRig(t *testing.T) (*sim.Sim, env.NodeID, *walNode) {
	t.Helper()
	s := sim.New(sim.Config{Seed: 75, Disk: sim.DiskConfig{SyncLatency: 10 * time.Millisecond}})
	n := &walNode{}
	id := s.AddNode(func() env.Node { return n })
	s.StartAll()
	s.RunFor(time.Millisecond)
	return s, id, n
}

// TestWALWriterGroupCommit drives the engine's only WAL path on the
// simulated disk: records appended while a flush is in flight reach
// storage as one AppendBatch, records land on disk in append order, and
// every done runs only after its record is durable.
func TestWALWriterGroupCommit(t *testing.T) {
	s, id, n := walRig(t)
	appendedAt := make(map[int]time.Time)
	var doneOrder []int
	add := func(seq int) {
		appendedAt[seq] = s.Now()
		n.w.append(env.Record{Kind: "test", Data: seq, Size: 100}, func(err error) {
			if err != nil {
				t.Errorf("record %d: %v", seq, err)
			}
			if n.st.durable <= seq {
				t.Errorf("record %d acked with only %d records durable", seq, n.st.durable)
			}
			if el := s.Now().Sub(appendedAt[seq]); el < 10*time.Millisecond {
				t.Errorf("record %d acked %v after append, under one flush", seq, el)
			}
			doneOrder = append(doneOrder, seq)
		})
	}
	// Record 0 flushes alone; 1..3 arrive in separate events while that
	// flush is in flight and must share the next one.
	n.e.Post(func() { add(0) })
	for seq := 1; seq <= 3; seq++ {
		seq := seq
		n.e.After(time.Duration(seq)*2*time.Millisecond, func() { add(seq) })
	}
	s.RunFor(100 * time.Millisecond)

	if n.st.appends != 0 {
		t.Errorf("walWriter issued %d single-record Appends, want 0", n.st.appends)
	}
	if got := fmt.Sprint(n.st.batches); got != "[[0] [1 2 3]]" {
		t.Errorf("AppendBatch calls %s, want [[0] [1 2 3]]", got)
	}
	if got := fmt.Sprint(doneOrder); got != "[0 1 2 3]" {
		t.Errorf("done order %s, want [0 1 2 3]", got)
	}
	var onDisk []int
	s.Storage(id).ReadRecords(func(recs []env.Record, err error) {
		for _, r := range recs {
			onDisk = append(onDisk, r.Data.(int))
		}
	})
	s.RunFor(100 * time.Millisecond)
	if got := fmt.Sprint(onDisk); got != "[0 1 2 3]" {
		t.Errorf("records on disk %s, want [0 1 2 3]", got)
	}
}

// TestWALWriterCrashBeforeDurable: a crash while the flush is in flight
// runs no completion — the acknowledgement of a record that may not be on
// disk must never leave the node.
func TestWALWriterCrashBeforeDurable(t *testing.T) {
	s, id, n := walRig(t)
	acked := 0
	n.e.Post(func() {
		for seq := 0; seq < 3; seq++ {
			n.w.append(env.Record{Kind: "test", Data: seq, Size: 100}, func(error) { acked++ })
		}
	})
	s.RunFor(5 * time.Millisecond)
	if len(n.st.batches) != 1 {
		t.Fatalf("flush not in flight at crash: %d AppendBatch calls", len(n.st.batches))
	}
	s.Crash(id)
	s.RunFor(100 * time.Millisecond)
	if acked != 0 {
		t.Fatalf("%d completions ran after a crash before the flush completed", acked)
	}
}
