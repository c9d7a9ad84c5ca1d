package main

import (
	"slices"
	"time"

	"robuststore/internal/shard"
	"robuststore/internal/tpcw"
)

// perLayer lists every per-layer metric a traced run reports, whatever
// the workload; a layer a workload does not measure reads 0 there
// (README.md lists them per workload).
// BENCHMARK.json's per_layer list and perfbench/README.md's map from each
// to the end-to-end metric it should move are kept in step with it.
var perLayer = func() [][2]string {
	out := [][2]string{
		{"sim.wall_ms_per_vs", "ms"},
		{"sim.wall_ms_per_vs_recovery", "ms"},
		{"sim.events_per_op", "count"},
		{"sim.ns_per_event", "ns"},
		{"runtime.alloc_kb_per_op", "KB"},
		{"runtime.gc_cpu_pct", "%"},
		{"runtime.gc_cycles", "count"},
		{"rbe.interactions", "count"},
		{"rbe.write_pct", "%"},
		{"webtier.read_p99_ms", "ms"},
		{"webtier.write_p99_ms", "ms"},
		{"webtier.server.cpu_queue_max", "count"},
		{"webtier.proxy.timeouts", "count"},
		{"webtier.proxy.redispatched", "count"},
		{"webtier.proxy.no_server", "count"},
		{"webtier.admission.paced", "count"},
		{"webtier.admission.held", "count"},
		{"webtier.admission.shed", "count"},
		{"webtier.fence_waits", "count"},
		{"webtier.stale_serves", "count"},
		{"webtier.downtime_s", "s"},
		{"core.restore_s", "s"},
		{"core.catchup_s", "s"},
		{"core.checkpoints", "count"},
		{"core.checkpoint_mb", "MB"},
		{"core.apply_lag_max", "count"},
		{"core.backlog_max", "count"},
		{"core.receive_us_p50", "us"},
		{"core.receive_us_p99", "us"},
		{"paxos.election_s", "s"},
		{"paxos.leader_changes", "count"},
		{"paxos.msgs_per_op", "count"},
		{"paxos.kb_per_op", "KB"},
		{"paxos.timers_per_op", "count"},
		{"paxos.replication_overhead_ms", "ms"},
		{"wal.flushes_per_op", "count"},
		{"wal.records_per_flush", "count"},
		{"wal.durable_ms_p50", "ms"},
		{"wal.durable_ms_p99", "ms"},
		{"wal.kb_per_op", "KB"},
		{"tpcw.clone_ms", "ms"},
		{"tpcw.snapshot_ms", "ms"},
		{"tpcw.snapshot_delta_ms", "ms"},
		{"shard.route_ns", "ns"},
		{"shard.submit_us", "us"},
		{"livenet.send_us_p50", "us"},
		{"gen.late_ms_p99", "ms"},
		{"gen.late_ms_max", "ms"},
		{"gen.backlog_end", "count"},
		{"client.failover_s", "s"},
		{"client.recovery_s", "s"},
		{"client.pv_pct", "%"},
		{"client.failed_pct", "%"},
		{"client.read_p99_ms", "ms"},
		{"trace.overhead_pct", "%"},
	}
	for _, k := range writeKinds {
		out = append(out, [2]string{"tpcw.apply_us." + k, "us"}, [2]string{"tpcw.apply_allocs." + k, "count"})
	}
	for _, k := range readKinds {
		out = append(out, [2]string{"tpcw.query_us." + k.String(), "us"}, [2]string{"tpcw.query_allocs." + k.String(), "count"})
	}
	return out
}()

// fillPerLayer reports 0 for every per-layer metric the workload's layers
// did not produce.
func fillPerLayer(rep *report) {
	for _, m := range perLayer {
		if _, ok := rep.metrics[m[0]]; !ok {
			rep.set(m[0], 0, m[1])
		}
	}
}

func overheadPct(traced, untraced time.Duration) float64 {
	return 100 * (traced - untraced).Seconds() / untraced.Seconds()
}

// setNodeLayers reports the core, paxos and wal layers from a tracer,
// per committed write.
func setNodeLayers(rep *report, t *tracer, writes int64) {
	ops := float64(max(writes, 1))
	rep.set("paxos.msgs_per_op", float64(t.sends.Load())/ops, "count")
	rep.set("paxos.kb_per_op", float64(t.sendBytes.Load())/1e3/ops, "KB")
	rep.set("paxos.timers_per_op", float64(t.timers.Load())/ops, "count")
	rep.set("wal.flushes_per_op", float64(t.flushes.Load())/ops, "count")
	rep.set("wal.records_per_flush", float64(t.walRecords.Load())/float64(max(t.flushes.Load(), 1)), "count")
	rep.set("wal.durable_ms_p50", t.durableMs.pct(50), "ms")
	rep.set("wal.durable_ms_p99", t.durableMs.pct(99), "ms")
	rep.set("wal.kb_per_op", float64(t.walBytes.Load())/1e3/ops, "KB")
	rep.set("core.receive_us_p50", t.receiveUs.pct(50), "us")
	rep.set("core.receive_us_p99", t.receiveUs.pct(99), "us")
}

// traceWriteRamp reports write-ramp's per-layer metrics: the reference
// rung traced, the ladder untraced for wall and runtime figures, and a
// single-replica run of the reference rung as the consensus baseline.
func traceWriteRamp(cfg config, proto *tpcw.Store, rep *report) {
	sp := writeRamp
	rt0 := readRuntime()
	un := simLadder(sp, proto, cfg.seed, nil, nil)
	rt1 := readRuntime()

	tracers := map[int]*tracer{}
	probes := map[int]*rampProbe{}
	tr := simLadder(sp, proto, cfg.seed,
		func(rate int) *tracer { tracers[rate] = newTracer(false); return tracers[rate] },
		func(rate int) simProbe { probes[rate] = &rampProbe{leader: -1}; return probes[rate].sample })
	rep.gate(tr.fingerprint() == un.fingerprint(), "traced ladder diverged from the untraced one:\n%s\n%s",
		un.fingerprint(), tr.fingerprint())
	for _, r := range un.rungs {
		gateRung(r, rep)
	}
	_, ref := ladderFigures(sp, un.rungs, rep)

	var ops int64
	for _, r := range un.rungs {
		ops += r.Applied
	}
	setRuntime(rep, rt0, rt1, ops)
	rep.set("sim.wall_ms_per_vs", 1e3*un.wall.Seconds()/un.vsec, "ms")
	t := tracers[sp.refRate]
	var refWall time.Duration
	for _, r := range un.rungs {
		if r.Rate == sp.refRate {
			refWall = r.wall
		}
	}
	rep.set("sim.events_per_op", float64(t.events())/float64(max(ref.Applied, 1)), "count")
	rep.set("sim.ns_per_event", float64(refWall.Nanoseconds())/float64(max(t.events(), 1)), "ns")
	setNodeLayers(rep, t, ref.Applied)
	rep.set("shard.submit_us", t.submitUs.pct(50), "us")
	pr := probes[sp.refRate]
	rep.set("core.backlog_max", float64(pr.backlogMax), "count")
	rep.set("core.apply_lag_max", float64(pr.lagMax), "count")
	rep.set("paxos.election_s", pr.electionS, "s")
	rep.set("paxos.leader_changes", float64(pr.leaderChanges), "count")

	single := simRung(sp, proto, sp.refRate, 1, cfg.seed, nil, nil)
	rep.gate(single.MeetsSLO, "single-replica reference rung misses the SLO: %s", single)
	rep.set("paxos.replication_overhead_ms", ref.P50-single.P50, "ms")
	rep.set("client.failed_pct", 100*float64(ref.Failed)/float64(max(ref.Issued, 1)), "%")
	rep.set("trace.overhead_pct", overheadPct(tr.wall, un.wall), "%")

	replayApply(rep, proto, sp, cfg.seed)
	replayState(rep, proto, cfg.seed)
	replayRoute(rep, sp.sessions)
	// The live runtime's own layers, from live-mixed's reference rung.
	live := liveRef(proto, cfg.seed, nil)
	gateRung(live.rung, rep)
	gateReads(live, rep)
	traceLiveRef(cfg, proto, live, rep)
	fillPerLayer(rep)
}

// rampProbe samples a simulated store's published hints between slices.
type rampProbe struct {
	backlogMax, lagMax int64
	leader             int // -1 until the first leader is seen
	leaderChanges      int
	electionS          float64 // virtual time to the first leader
}

func (p *rampProbe) sample(store *shard.Store, elapsed time.Duration) {
	st := store.Status()[0]
	if st.Backlog > p.backlogMax {
		p.backlogMax = st.Backlog
	}
	lo := st.LastApplied
	g := store.Group(0)
	for m := range g.Members() {
		if r := g.Replica(m); r != nil && r.Ready() && int64(r.LastApplied()) < lo {
			lo = int64(r.LastApplied())
		}
	}
	if st.LastApplied-lo > p.lagMax {
		p.lagMax = st.LastApplied - lo
	}
	if st.Leader >= 0 && st.Leader != p.leader {
		if p.leader < 0 {
			p.electionS = elapsed.Seconds()
		} else {
			p.leaderChanges++
		}
		p.leader = st.Leader
	}
}

// traceShopping reports the crash run's per-layer metrics from a traced
// pass, after an untraced pass of the same seed for wall and runtime
// figures; the two must agree on every virtual-time output.
func traceShopping(cfg config, proto *tpcw.Store, rep *report) {
	rt0 := readRuntime()
	un := runShopPass(paperShop, proto, cfg.seed, false)
	rt1 := readRuntime()
	tr := runShopPass(paperShop, proto, cfg.seed, true)
	rep.gate(tr.fingerprint() == un.fingerprint(), "traced pass diverged from the untraced one:\n%s\n%s",
		un.fingerprint(), tr.fingerprint())
	shopGates(un, rep)
	t := tr.trace

	setRuntime(rep, rt0, rt1, un.Answered)
	rep.set("sim.wall_ms_per_vs", 1e3*un.wall.Seconds()/un.virtual.Seconds(), "ms")
	if un.recoveryVirtual > 0 {
		rep.set("sim.wall_ms_per_vs_recovery", 1e3*un.recoveryWall.Seconds()/un.recoveryVirtual.Seconds(), "ms")
	}
	rep.set("rbe.interactions", float64(un.Issued), "count")
	rep.set("rbe.write_pct", 100*float64(un.writes)/float64(max(un.Answered, 1)), "%")
	rep.set("webtier.read_p99_ms", pct(t.readMs, 99), "ms")
	rep.set("webtier.write_p99_ms", pct(t.writeMs, 99), "ms")
	rep.set("webtier.server.cpu_queue_max", float64(t.cpuQueueMax), "count")
	rep.set("webtier.proxy.timeouts", float64(t.proxy.ErrTimeout), "count")
	rep.set("webtier.proxy.redispatched", float64(t.proxy.Redispatched), "count")
	rep.set("webtier.proxy.no_server", float64(t.proxy.ErrNoServer), "count")
	rep.set("webtier.admission.paced", float64(t.proxy.AdmPaced), "count")
	rep.set("webtier.admission.held", float64(t.proxy.AdmHeld), "count")
	rep.set("webtier.admission.shed", float64(t.proxy.AdmShed), "count")
	rep.set("webtier.fence_waits", float64(t.fenceWaits), "count")
	rep.set("webtier.stale_serves", float64(t.stale), "count")
	rep.set("webtier.downtime_s", t.downtime.Seconds(), "s")
	if !t.readyAt.IsZero() {
		rep.set("core.restore_s", t.readyAt.Sub(t.restartAt).Seconds(), "s")
		if !t.recoveredAt.IsZero() {
			rep.set("core.catchup_s", t.recoveredAt.Sub(t.readyAt).Seconds(), "s")
		}
	}
	rep.set("core.checkpoints", float64(t.ckptWrites), "count")
	rep.set("core.checkpoint_mb", float64(t.ckptBytes)/1e6, "MB")
	rep.set("core.apply_lag_max", float64(t.applyLagMax), "count")
	rep.set("core.backlog_max", float64(t.backlogMax), "count")
	rep.set("paxos.election_s", t.electionS, "s")
	rep.set("paxos.leader_changes", float64(t.leaderChanges), "count")
	rep.set("client.failover_s", un.FailoverS, "s")
	rep.set("client.recovery_s", un.RecoveryS, "s")
	rep.set("client.pv_pct", -un.PV, "%")
	rep.set("client.failed_pct", 100*float64(un.Errs)/float64(max(un.Issued, 1)), "%")
	rep.set("trace.overhead_pct", overheadPct(tr.wall, un.wall), "%")

	replayQueries(rep, proto, tr.capture)
	replayState(rep, proto, cfg.seed)
	fillPerLayer(rep)
}

// traceLiveRef reports the layers only the live runtime has, at
// live-mixed's reference rung: from ref, a run of the rung untraced, the
// generator's lateness, the end-of-window backlog and the fenced reads'
// p99; from a second run of the rung, traced, the time spent inside the
// transport's send. It returns the traced run and its tracer.
func traceLiveRef(cfg config, proto *tpcw.Store, ref liveRungOut, rep *report) (liveRungOut, *tracer) {
	rep.set("gen.late_ms_p99", ref.LateP99, "ms")
	rep.set("gen.late_ms_max", ref.LateMax, "ms")
	rep.set("gen.backlog_end", float64(ref.BacklogEnd), "count")
	rep.set("client.read_p99_ms", ref.ReadP99, "ms")
	t := newTracer(true)
	tref := liveRef(proto, cfg.seed, t)
	gateRung(tref.rung, rep)
	gateReads(tref, rep)
	rep.set("livenet.send_us_p50", t.sendUs.pct(50), "us")
	return tref, t
}

// traceLiveMixed reports live-mixed's per-layer metrics: the ladder runs
// untraced for the client, generator and runtime figures, then the
// reference rung runs again traced for the node layers.
func traceLiveMixed(cfg config, proto *tpcw.Store, rep *report) {
	sp := liveMixed
	un := liveLadder(proto, cfg.seed, nil)
	liveGates(un, rep)
	ref := un[slices.Index(sp.ladder, sp.refRate)]
	tref, t := traceLiveRef(cfg, proto, ref, rep)

	setRuntime(rep, ref.rt0, ref.rt1, ref.opsIssued)
	setNodeLayers(rep, t, tref.Applied)
	rep.set("shard.submit_us", t.submitUs.pct(50), "us")
	rep.set("core.backlog_max", float64(ref.BacklogMax), "count")
	rep.set("core.apply_lag_max", float64(ref.LagMax), "count")
	rep.set("client.failed_pct", 100*float64(ref.Failed)/float64(max(ref.Issued, 1)), "%")
	rep.set("trace.overhead_pct", overheadPct(tref.cpu, ref.cpu), "%")

	replayApply(rep, proto, sp, cfg.seed)
	replayState(rep, proto, cfg.seed)
	replayRoute(rep, sp.sessions)
	fillPerLayer(rep)
}
