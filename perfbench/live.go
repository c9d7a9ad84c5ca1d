package main

import (
	"fmt"
	"os"
	"slices"
	"sync/atomic"
	"time"

	"robuststore/internal/core"
	"robuststore/internal/env"
	"robuststore/internal/livenet"
	"robuststore/internal/paxos"
	"robuststore/internal/shard"
	"robuststore/internal/tpcw"
	"robuststore/internal/xrand"
)

// liveMixed is the live-mixed workload: real goroutines on the live
// runtime with cmd/robuststore's settings, writes beside fenced follower
// reads (the Shopping profile's readsPerWrite), open loop from one
// generator goroutine. Below the knee the commit p99 is set by scheduling
// stalls that reach from tens to over a hundred milliseconds from run to
// run, so the rungs are spaced four times apart and the SLO sits above the
// stalls: on two cores 32k writes/s keeps the write backlog flat and 128k
// does not. The drain is long enough for the top rung's writes to finish.
var liveMixed = rampSpec{
	ladder:   []int{8000, 32000, 128000},
	refRate:  8000,
	sloMs:    300,
	warmup:   time.Second,
	window:   2 * time.Second,
	drain:    6 * time.Second,
	sessions: 1000,
}

// liveRefRepeats is how many times a run measures the reference rung,
// each on a fresh cluster; its figures are the medians, as single live
// rungs vary with the machine's scheduling.
const liveRefRepeats = 5

// readWait bounds how long a fenced read waits for its follower to catch
// up before it is answered stale (and counted failed).
const readWait = time.Second

// liveRungOut is one live rung's outcome.
type liveRungOut struct {
	rung
	ReadP99             float64
	ReadFailed          int64
	Checked, Violations int64
	LateP99, LateMax    float64 // generator lateness, ms
	BacklogMax, LagMax  int64
	cpu                 time.Duration
	rt0, rt1            rtCounters
	opsIssued           int64
}

// liveRung runs one rung on a fresh live 1-group store.
func liveRung(sp rampSpec, proto *tpcw.Store, rate int, seed uint64, tr *tracer) liveRungOut {
	cl := livenet.New(livenet.Config{Latency: 150 * time.Microsecond, Seed: seed})
	var rt nodeRuntime = cl
	if tr != nil {
		rt = tracedRuntime{nodeRuntime: cl, t: tr}
	}
	store := shard.New(rt, shard.Config{
		Shards:   1,
		Replicas: 3,
		Machine:  machines(proto, tr != nil),
		Core: core.Config{
			ActionSize:         tpcw.ActionSize,
			CheckpointInterval: 2 * time.Second,
			Paxos: paxos.Config{
				HeartbeatInterval: 20 * time.Millisecond,
				LeaderTimeout:     150 * time.Millisecond,
				SweepInterval:     10 * time.Millisecond,
				BatchDelay:        time.Millisecond,
			},
		},
	})
	grp := store.Group(0)
	members := grp.Members()
	memberOf := func(r *core.Replica) env.NodeID {
		for m, id := range members {
			if grp.Replica(m) == r {
				return id
			}
		}
		return -1
	}
	// follower returns the k-th ready member that is not leading.
	follower := func(k int) *core.Replica {
		var cands [3]*core.Replica
		n := 0
		for m := range members {
			if r := grp.Replica(m); r != nil && r.Ready() && !r.LeaderHint() {
				cands[n] = r
				n++
			}
		}
		if n == 0 {
			return nil
		}
		return cands[k%n]
	}

	info := proto.Info()
	from, to := sp.warmup, sp.warmup+sp.window
	rng := xrand.New(seed*0x9e3779b97f4a7c15 + uint64(rate))
	sessions := newSessions(sp.sessions, info.Customers, rng)
	keys := sessionKeys(sp.sessions)
	plan := planRung(rng, rate, sp.warmup+sp.window, sp.sessions, info.Items, true)
	ledger := newLedger(plan, from, to)
	var checked, violations atomic.Int64
	late := make([]float64, 0, len(plan))
	var out liveRungOut
	out.opsIssued = int64(len(plan))

	out.rt0 = readRuntime()
	cpu0 := processCPU()
	cl.StartAll()
	start := time.Now()
	// issueRead posts a fenced read to a follower; its check runs on the
	// follower's executor.
	issueRead := func(i int, p planned, due time.Time) {
		sess := sessions[p.session]
		ev, fence := sess.readCheck()
		r := follower(int(p.session))
		ok := r != nil && r.ReadAt(fence, readWait, func(sm core.StateMachine, applied paxos.InstanceID) {
			good, chk := sess.verify(sm, ev)
			if chk {
				checked.Add(1)
			}
			if !good || applied < fence {
				violations.Add(1)
			}
			ledger.finish(i, opCompleted, time.Since(due))
		}, func() { ledger.finish(i, opFailed, time.Since(due)) })
		if !ok {
			ledger.finish(i, opFailed, 0)
		}
	}
	// The writes of one wake-up reach their replica in one post, so an
	// overloaded rung queues inside the replica instead of overflowing
	// the runtime's bounded per-node inbox.
	type write struct {
		i   int
		p   planned
		act any
		due time.Time
	}
	batches := map[*core.Replica][]write{}
	post := func() {
		for r, ws := range batches {
			cl.Post(memberOf(r), func() {
				for _, w := range ws {
					sess := sessions[w.p.session]
					r.SubmitIndexed(w.act, func(res any, inst paxos.InstanceID, err error) {
						outcome := opCompleted
						if err != nil || !sess.ack(w.p, res, inst) {
							outcome = opFailed
						}
						ledger.finish(w.i, outcome, time.Since(w.due))
					})
				}
			})
			delete(batches, r)
		}
	}
	for i, wakes := 0, 0; i < len(plan); wakes++ {
		if d := time.Until(start.Add(plan[i].due)); d > 0 {
			time.Sleep(d)
		}
		now := time.Now()
		for ; i < len(plan) && !start.Add(plan[i].due).After(now); i++ {
			p := plan[i]
			due := start.Add(p.due)
			inWindow := ledger.inWindow[i]
			if inWindow {
				late = append(late, ms(now.Sub(due)))
			}
			if p.read {
				issueRead(i, p, due)
				continue
			}
			t0 := time.Now()
			r := store.PickReplica(keys[p.session])
			if tr != nil && inWindow {
				tr.submitUs.add(float64(time.Since(t0).Nanoseconds()) / 1e3)
			}
			if r == nil {
				ledger.finish(i, opFailed, 0)
				continue
			}
			batches[r] = append(batches[r], write{i: i, p: p, act: sessions[p.session].writeAction(p), due: due})
		}
		post()
		if wakes%64 == 0 && plan[i-1].due >= from {
			out.sampleHints(store)
		}
	}
	for end := time.Now().Add(sp.drain); ledger.done.Load() < int64(len(plan)) && time.Now().Before(end); {
		time.Sleep(5 * time.Millisecond)
	}
	cl.Close()
	out.cpu = processCPU() - cpu0
	out.rt1 = readRuntime()

	var rw windowStats
	out.rung, rw = finishRung(sp, rate, plan, ledger)
	out.ReadFailed = rw.failed
	out.ReadP99 = pct(rw.latMs, 99)
	out.Checked, out.Violations = checked.Load(), violations.Load()
	out.LateP99, out.LateMax = pct(late, 99), pct(late, 100)
	return out
}

// rungSeed is the seed of a ladder rung's cluster and plan.
func rungSeed(seed uint64, k int) uint64 { return seed + uint64(k)*7919 }

// liveRef runs live-mixed's reference rung once, on its ladder seed.
func liveRef(proto *tpcw.Store, seed uint64, tr *tracer) liveRungOut {
	sp := liveMixed
	return liveRung(sp, proto, sp.refRate, rungSeed(seed, slices.Index(sp.ladder, sp.refRate)), tr)
}

// liveLadder runs every rung of liveMixed untraced, except that ref, when
// set, stands in for the reference rung.
func liveLadder(proto *tpcw.Store, seed uint64, ref *liveRungOut) []liveRungOut {
	var outs []liveRungOut
	for k, rate := range liveMixed.ladder {
		var o liveRungOut
		if ref != nil && rate == liveMixed.refRate {
			o = *ref
		} else {
			o = liveRung(liveMixed, proto, rate, rungSeed(seed, k), nil)
		}
		fmt.Fprintf(os.Stderr, "perfbench: rung %d: readp99=%.3f readfail=%d checked=%d violations=%d late99=%.3f latemax=%.3f cpu=%.2fs\n",
			o.Rate, o.ReadP99, o.ReadFailed, o.Checked, o.Violations, o.LateP99, o.LateMax, o.cpu.Seconds())
		outs = append(outs, o)
	}
	return outs
}

// gateReads checks that every fenced read of a live rung saw its
// session's last acknowledged write, and that the reference rung had
// writes to check reads against.
func gateReads(o liveRungOut, rep *report) {
	rep.gate(o.Violations == 0, "rung %d: %d fenced reads missed the session's last acknowledged write",
		o.Rate, o.Violations)
	if o.Rate == liveMixed.refRate {
		rep.gate(o.Checked > 0, "reference rung checked no fenced read against a write")
	}
}

// liveGates checks a live ladder's rungs and calibration and derives
// max_rate_at_slo.
func liveGates(outs []liveRungOut, rep *report) float64 {
	rungs := make([]rung, len(outs))
	for k, o := range outs {
		rungs[k] = o.rung
		gateRung(o.rung, rep)
		gateReads(o, rep)
	}
	maxRate, _ := ladderFigures(liveMixed, rungs, rep)
	return maxRate
}

// medianOf returns the median of f over the passes.
func medianOf(outs []liveRungOut, f func(liveRungOut) float64) float64 {
	xs := make([]float64, len(outs))
	for i, o := range outs {
		xs[i] = f(o)
	}
	return median(xs)
}

// runLiveMixed is the live-mixed workload.
func runLiveMixed(cfg config, rep *report) {
	proto, setup := repeatSetup(smallSetups, func() *tpcw.Store { return smallPopulation(cfg.seed) })
	if cfg.trace {
		traceLiveMixed(cfg, proto, rep)
		return
	}
	rep.set("setup_s", setup, "s")
	k := slices.Index(liveMixed.ladder, liveMixed.refRate)
	refs := make([]liveRungOut, liveRefRepeats)
	for r := range refs {
		refs[r] = liveRung(liveMixed, proto, liveMixed.refRate, rungSeed(cfg.seed, k)+uint64(r)*104729, nil)
	}
	// The footprint is that of the reference load, measured before the
	// rungs past it, whose backlogs would make it a measure of overload.
	rep.set("heap_peak_mb", rep.heap.peakBytes()/1e6, "MB")
	maxRate := liveGates(liveLadder(proto, cfg.seed, &refs[0]), rep)
	for _, o := range refs[1:] {
		gateRung(o.rung, rep)
		gateReads(o, rep)
	}
	rep.set("cost_s", medianOf(refs, func(o liveRungOut) float64 { return o.cpu.Seconds() }), "s")
	rep.set("rate_per_s", maxRate, "1/s")
	rep.set("p50_ms", medianOf(refs, func(o liveRungOut) float64 { return o.P50 }), "ms")
	rep.set("p99_ms", medianOf(refs, func(o liveRungOut) float64 { return o.P99 }), "ms")
}

// sampleHints folds the group's published backlog and apply lag into the
// rung's maxima.
func (o *liveRungOut) sampleHints(store *shard.Store) {
	grp := store.Group(0)
	st := store.Status()[0]
	lo := st.LastApplied
	for m := range grp.Members() {
		if r := grp.Replica(m); r != nil {
			o.BacklogMax = max(o.BacklogMax, r.BacklogHint())
			lo = min(lo, int64(r.LastApplied()))
		}
	}
	o.LagMax = max(o.LagMax, st.LastApplied-lo)
}
