package main

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"robuststore/internal/core"
	"robuststore/internal/shard"
	"robuststore/internal/sim"
	"robuststore/internal/tpcw"
	"robuststore/internal/xrand"
)

// rampSpec fixes an open-loop workload's schedule: a ladder of write
// rates, each rung a fresh cluster with warm-up and drain excluded from
// its measurement window.
type rampSpec struct {
	ladder   []int   // writes per second, ascending
	refRate  int     // reference rung, below the knee
	sloMs    float64 // commit p99 limit of max_rate_at_slo
	warmup   time.Duration
	window   time.Duration
	drain    time.Duration
	sessions int
}

// writeRamp is the write-ramp workload: its knee lies between 4k and 16k
// writes/s on the default simulated disk, so the ladder is dense there.
var writeRamp = rampSpec{
	ladder:   []int{1000, 2000, 4000, 8000, 16000, 24000, 28000, 32000},
	refRate:  8000,
	sloMs:    50,
	warmup:   2 * time.Second,
	window:   5 * time.Second,
	drain:    10 * time.Second,
	sessions: 1000,
}

// smallSetups is how many times the open-loop workloads populate their
// store for setup_s: one population takes milliseconds, so a single
// sample is mostly scheduling noise.
const smallSetups = 101

// smallPopulation is the per-replica bookstore of the open-loop workloads
// (the live command's size): small, so the consensus pipeline dominates.
func smallPopulation(seed uint64) *tpcw.Store {
	return tpcw.Populate(tpcw.PopConfig{Items: 1000, EBs: 1, Reduction: 4, Seed: seed})
}

// machines returns a shard machine factory that hands every replica
// incarnation its own copy of proto, wrapped for tracing when traced.
// Clone resets the prototype's delta tracking, so copies are made one at
// a time: live replicas start in parallel.
func machines(proto *tpcw.Store, traced bool) func(int) core.StateMachine {
	var mu sync.Mutex
	return func(int) core.StateMachine {
		mu.Lock()
		st := proto.Clone()
		mu.Unlock()
		if traced {
			return &tracedMachine{Store: st}
		}
		return st
	}
}

// rung is one rung's outcome. Every field is virtual-time on the
// simulator, so two runs of one seed must print it identically.
type rung struct {
	Rate       int
	Issued     int64 // writes due in the window
	Completed  int64
	Failed     int64
	P50, P99   float64 // commit latency from due time, ms
	BacklogEnd int64   // window writes unfinished at the window's end
	Answered   int64   // outcomes that arrived for the window's operations
	AnsweredOK int64   // ...of which completions
	Dups       int64   // second outcomes of one operation
	Lost       int64   // operations of the whole rung never answered
	Applied    int64   // writes of the whole rung that committed
	MeetsSLO   bool

	wall    time.Duration // wall time of the rung
	virtual time.Duration // virtual time simulated (simulator only)
}

func (r rung) String() string {
	return fmt.Sprintf("rate=%d issued=%d completed=%d failed=%d answered=%d/%d p50=%.6f p99=%.6f backlog=%d dups=%d lost=%d applied=%d slo=%v vsec=%.3f",
		r.Rate, r.Issued, r.Completed, r.Failed, r.AnsweredOK, r.Answered, r.P50, r.P99, r.BacklogEnd, r.Dups, r.Lost,
		r.Applied, r.MeetsSLO, r.virtual.Seconds())
}

// finishRung derives a rung's figures from its ledger. Commit latency is
// that of the window's writes; the counts, the backlog and the SLO cover
// its reads too, whose own window figures are returned beside.
func finishRung(sp rampSpec, rate int, plan []planned, l *opLedger) (rung, windowStats) {
	from, to := sp.warmup, sp.warmup+sp.window
	w := l.window(plan, from, to, false)
	rw := l.window(plan, from, to, true)
	r := rung{
		Rate:       rate,
		Issued:     w.issued + rw.issued,
		Completed:  w.completed + rw.completed,
		Failed:     w.failed + rw.failed,
		P50:        pct(w.latMs, 50),
		P99:        pct(w.latMs, 99),
		BacklogEnd: l.backlogAt(plan, from, to),
		Answered:   l.windowAnswered.Load(),
		AnsweredOK: l.windowCompleted.Load(),
		Dups:       l.dups.Load(),
		Lost:       int64(len(plan)) - l.done.Load(),
	}
	for i, p := range plan {
		if !p.read && l.state[i].Load() == opCompleted {
			r.Applied++
		}
	}
	offeredPerSec := float64(r.Issued) / sp.window.Seconds()
	r.MeetsSLO = r.Failed == 0 && r.P99 <= sp.sloMs &&
		float64(r.BacklogEnd) <= offeredPerSec*sp.sloMs/1e3
	return r, rw
}

// simProbe is called between simulator slices of a traced rung with the
// virtual time elapsed since the rung's cluster started.
type simProbe func(store *shard.Store, elapsed time.Duration)

// simRung runs one rung on a fresh simulated 1-group store. tr and probe
// are nil on the untraced run; neither changes the event schedule.
func simRung(sp rampSpec, proto *tpcw.Store, rate, replicas int, seed uint64, tr *tracer, probe simProbe) rung {
	wall0 := time.Now()
	s := sim.New(sim.Config{Seed: seed})
	vstart := s.Now()
	var rt nodeRuntime = s
	if tr != nil {
		rt = tracedRuntime{nodeRuntime: s, t: tr}
	}
	store := shard.New(rt, shard.Config{
		Shards:   1,
		Replicas: replicas,
		Machine:  machines(proto, tr != nil),
		Core:     core.Config{ActionSize: tpcw.ActionSize},
	})
	slice := 100 * time.Millisecond
	if probe != nil {
		slice = 10 * time.Millisecond
	}
	runFor := func(d time.Duration) {
		for end := s.Now().Add(d); s.Now().Before(end); {
			s.RunFor(slice)
			if probe != nil {
				probe(store, s.Now().Sub(vstart))
			}
		}
	}
	// Load starts with the cluster, as in shard.MeasureThroughput: the
	// warm-up covers boot and leader election, and writes due before the
	// group is ready fail there, outside the measurement window.
	s.StartAll()
	info := proto.Info()
	rng := xrand.New(seed*0x9e3779b97f4a7c15 + uint64(rate))
	sessions := newSessions(sp.sessions, info.Customers, rng)
	keys := sessionKeys(sp.sessions)
	plan := planRung(rng, rate, sp.warmup+sp.window, sp.sessions, info.Items, false)
	ledger := newLedger(plan, sp.warmup, sp.warmup+sp.window)
	start := s.Now()
	var next int
	var issue func()
	issue = func() {
		i := next
		next++
		p := plan[i]
		sess := sessions[p.session]
		due := start.Add(p.due)
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
		}
		store.Submit(keys[p.session], sess.writeAction(p), func(res any, err error) {
			outcome := opCompleted
			if err != nil || !sess.ack(p, res, 0) {
				outcome = opFailed
			}
			ledger.finish(i, outcome, s.Now().Sub(due))
		})
		if tr != nil && ledger.inWindow[i] {
			tr.submitUs.add(float64(time.Since(t0).Nanoseconds()) / 1e3)
		}
		if next < len(plan) {
			s.At(start.Add(plan[next].due), issue)
		}
	}
	s.At(start, issue)
	runFor(sp.warmup + sp.window)
	for end := s.Now().Add(sp.drain); ledger.done.Load() < int64(len(plan)) && s.Now().Before(end); {
		runFor(100 * time.Millisecond)
	}
	r, _ := finishRung(sp, rate, plan, ledger)
	r.wall, r.virtual = time.Since(wall0), s.Now().Sub(vstart)
	return r
}

// ladderRun is one pass over a ladder.
type ladderRun struct {
	rungs []rung
	wall  time.Duration
	cpu   time.Duration // process CPU time, garbage collection included
	vsec  float64       // virtual seconds simulated
}

func (l ladderRun) fingerprint() string {
	var b strings.Builder
	for _, r := range l.rungs {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// simLadder runs every rung of sp; tracers and probes come per rung.
func simLadder(sp rampSpec, proto *tpcw.Store, seed uint64,
	tracerFor func(rate int) *tracer, probeFor func(rate int) simProbe) ladderRun {
	var out ladderRun
	t0, cpu0 := time.Now(), processCPU()
	for k, rate := range sp.ladder {
		var tr *tracer
		var probe simProbe
		if tracerFor != nil {
			tr, probe = tracerFor(rate), probeFor(rate)
		}
		r := simRung(sp, proto, rate, 3, seed+uint64(k)*7919, tr, probe)
		out.rungs = append(out.rungs, r)
		out.vsec += r.virtual.Seconds()
	}
	out.wall, out.cpu = time.Since(t0), processCPU()-cpu0
	return out
}

// gateRung checks one rung's accounting and adds it to the run's counts:
// every operation of the rung is answered exactly once by the end of the
// drain, and the outcomes counted as they arrived agree with the ledger's
// window, so no window completes more operations than were issued in it.
func gateRung(r rung, rep *report) {
	rep.attempted += r.Issued
	rep.failed += r.Failed
	rep.gate(r.Dups == 0, "rung %d: %d operations answered twice", r.Rate, r.Dups)
	rep.gate(r.Lost == 0, "rung %d: %d operations unanswered after the drain", r.Rate, r.Lost)
	rep.gate(r.Answered == r.Issued, "rung %d: %d outcomes arrived for the %d operations due in the window",
		r.Rate, r.Answered, r.Issued)
	rep.gate(r.AnsweredOK <= r.Issued, "rung %d: %d completions arrived for the %d operations due in the window",
		r.Rate, r.AnsweredOK, r.Issued)
	fmt.Fprintf(os.Stderr, "perfbench: %s\n", r)
}

// ladderFigures derives max_rate_at_slo and the reference rung, and checks
// the ladder's calibration: the reference rung meets the SLO and a rung
// below the top one is the highest to. The rungs are gated by the caller.
func ladderFigures(sp rampSpec, rungs []rung, rep *report) (maxRate float64, ref rung) {
	for _, r := range rungs {
		if r.MeetsSLO {
			maxRate = float64(r.Rate)
		}
		if r.Rate == sp.refRate {
			ref = r
		}
	}
	rep.gate(ref.Rate == sp.refRate && ref.MeetsSLO, "reference rung %d misses the SLO", sp.refRate)
	rep.gate(maxRate > 0 && maxRate < float64(sp.ladder[len(sp.ladder)-1]),
		"max_rate_at_slo %.0f is not below the ladder's top rung", maxRate)
	return maxRate, ref
}

// runWriteRamp is the write-ramp workload.
func runWriteRamp(cfg config, rep *report) {
	proto, setup := repeatSetup(smallSetups, func() *tpcw.Store { return smallPopulation(cfg.seed) })
	if cfg.trace {
		traceWriteRamp(cfg, proto, rep)
		return
	}
	rep.set("setup_s", setup, "s")
	var cpus []float64
	var first ladderRun
	t0 := time.Now()
	for {
		lr := simLadder(writeRamp, proto, cfg.seed, nil, nil)
		cpus = append(cpus, lr.cpu.Seconds())
		if first.rungs == nil {
			first = lr
		} else {
			rep.gate(lr.fingerprint() == first.fingerprint(), "ladder repeat diverged from the first pass")
		}
		if time.Since(t0)+lr.wall > time.Duration(cfg.seconds*float64(time.Second)) {
			break
		}
	}
	for _, r := range first.rungs {
		gateRung(r, rep)
	}
	maxRate, ref := ladderFigures(writeRamp, first.rungs, rep)
	rep.set("cost_s", median(cpus), "s")
	rep.set("rate_per_s", maxRate, "1/s")
	rep.set("p50_ms", ref.P50, "ms")
	rep.set("p99_ms", ref.P99, "ms")
}
