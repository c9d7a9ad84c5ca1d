package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"robuststore/internal/core"
	"robuststore/internal/metrics"
	"robuststore/internal/rbe"
	"robuststore/internal/sim"
	"robuststore/internal/tpcw"
	"robuststore/internal/webtier"
)

// shopSpec fixes a crash run's deployment and timeline.
type shopSpec struct {
	servers, browsers int
	stateEBs          int // TPC-W population parameter: 50 EBs model 500 MB
	rampUp, measure   time.Duration
	rampDown          time.Duration
	crashAt           time.Duration // on the paper's x-axis, from T0
}

// paperShop is the tpcw-shopping-crash workload, the paper's one-crash
// run (§5.4): the Shopping mix from 1000 closed-loop browsers at 1 s think
// time against 5 replicas holding a 500 MB state; the group's leader
// crashes at 270 s and the watchdog restarts it. The testbed model repeats
// the experiment harness's calibration (internal/exp/calibration.go).
var paperShop = shopSpec{
	servers:  5,
	browsers: 1000,
	stateEBs: 50,
	rampUp:   30 * time.Second,
	measure:  540 * time.Second,
	rampDown: 30 * time.Second,
	crashAt:  270 * time.Second,
}

const (
	shopThinkTime = time.Second
	shopPollEvery = 50 * time.Millisecond

	// replayReads bounds the read requests kept for the query replay.
	replayReads = 20000
)

var (
	shopDisk = sim.DiskConfig{
		SyncLatency:    25 * time.Millisecond,
		SyncJitter:     1.0,
		WriteBandwidth: 45e6,
		ReadBandwidth:  12e6,
	}
	shopNet = sim.NetConfig{
		BaseLatency:  120 * time.Microsecond,
		Bandwidth:    125e6,
		SendOverhead: 150 * time.Microsecond,
		Jitter:       0.5,
	}
)

func (sp shopSpec) population(seed uint64) *tpcw.Store {
	return tpcw.Populate(tpcw.PopConfig{Items: 10000, EBs: sp.stateEBs, Reduction: 4, Seed: seed})
}

// simSched adapts the simulator to rbe.Scheduler.
type simSched struct{ s *sim.Sim }

func (a simSched) Now() time.Time                   { return a.s.Now() }
func (a simSched) After(d time.Duration, fn func()) { a.s.After(d, fn) }

// clientFrontend is the browsers' view of the store: it times every
// interaction from issue to response and counts each response exactly
// once. On the traced run it also keeps the read requests for replay.
type clientFrontend struct {
	inner   rbe.Frontend
	now     func() time.Time
	crashAt time.Time // zero until the crash

	issued, answered, errs, dups int64
	firstWriteAfterCrash         time.Time

	// Per-interaction samples (virtual ms, completion time in s from T0).
	t0      time.Time
	samples []sample

	capture []rbe.Request // read requests, traced run only
	keep    bool
}

type sample struct {
	atSec float64
	ms    float64 // +Inf for an error
	write bool
}

func (f *clientFrontend) Do(req rbe.Request, done func(rbe.Response)) {
	f.issued++
	start := f.now()
	write := req.Kind.IsWrite()
	if f.keep && !write && len(f.capture) < replayReads {
		f.capture = append(f.capture, req)
	}
	answered := false
	f.inner.Do(req, func(resp rbe.Response) {
		if answered {
			f.dups++
			return
		}
		answered = true
		f.answered++
		end := f.now()
		lat := ms(end.Sub(start))
		if resp.Err {
			f.errs++
			lat = inf
		} else if write && !f.crashAt.IsZero() && start.After(f.crashAt) && f.firstWriteAfterCrash.IsZero() {
			f.firstWriteAfterCrash = end
		}
		f.samples = append(f.samples, sample{atSec: end.Sub(f.t0).Seconds(), ms: lat, write: write})
		done(resp)
	})
}

// shopRun is one pass of the crash run; every field except the wall
// times is virtual-time and must repeat exactly for one seed.
type shopRun struct {
	WIPS, WirtP50, WirtP99 float64
	PV                     float64
	FailoverS, RecoveryS   float64
	Issued, Answered, Errs int64
	Dups                   int64
	Victim                 int
	Converged              bool
	LastApplied            int64
	Violations             []string
	FenceViolations        int64

	wall, recoveryWall time.Duration
	cpu                time.Duration // process CPU time, garbage collection included
	virtual            time.Duration // simulated from cluster start to drain end
	recoveryVirtual    time.Duration
	capture            []rbe.Request // read requests, traced pass only
	writes             int64         // write interactions answered
	trace              *shopTrace
}

func (r shopRun) fingerprint() string {
	return fmt.Sprintf("wips=%.9g p50=%.9g p99=%.9g pv=%.9g failover=%.9g recovery=%.9g issued=%d answered=%d errs=%d dups=%d victim=%d converged=%v applied=%d violations=%s fence=%d",
		r.WIPS, r.WirtP50, r.WirtP99, r.PV, r.FailoverS, r.RecoveryS, r.Issued, r.Answered, r.Errs,
		r.Dups, r.Victim, r.Converged, r.LastApplied, strings.Join(r.Violations, ";"), r.FenceViolations)
}

// shopTrace holds the per-layer samples of a traced pass, taken between
// simulator slices from public getters only.
type shopTrace struct {
	cpuQueueMax           int
	applyLagMax           int64
	backlogMax            int64
	leaderChanges         int
	electionS             float64
	restartAt, readyAt    time.Time
	recoveredAt           time.Time
	ckptWrites, ckptBytes int64
	readMs, writeMs       []float64
	proxy                 webtier.ProxyStats
	fenceWaits, stale     int64
	downtime              time.Duration
}

// runShopPass runs the crash run once. traced adds per-layer polling and
// request capture, neither of which touches the simulator's schedule.
func runShopPass(sp shopSpec, proto *tpcw.Store, seed uint64, traced bool) shopRun {
	var out shopRun
	victim := -1
	var crashAt, recoveredAt time.Time
	cluster := webtier.NewCluster(webtier.Config{
		Servers:            sp.servers,
		FastPaxos:          true,
		Store:              proto.Clone,
		Cal:                webtier.DefaultCalibration(),
		CheckpointInterval: 60 * time.Second,
		RetainInstances:    400000,
		Seed:               seed,
		Net:                shopNet,
		Disk:               shopDisk,
		OnRecovered: func(server int, at time.Time) {
			if server == victim && !crashAt.IsZero() && recoveredAt.IsZero() {
				recoveredAt = at
			}
		},
	})
	s := cluster.Sim()
	wall0, cpu0, vstart := time.Now(), processCPU(), s.Now()
	cluster.Start()

	// Install the initial population checkpoint on every disk, as the
	// paper populates before measuring.
	s.RunFor(2 * time.Second)
	ckptDone := false
	cluster.CheckpointAll(func() { ckptDone = true })
	for deadline := s.Now().Add(60 * time.Second); !ckptDone && s.Now().Before(deadline); {
		s.RunFor(time.Second)
	}

	t0 := s.Now()
	ckptW0, ckptB0 := cluster.CheckpointIO()
	total := sp.rampUp + sp.measure + sp.rampDown
	rec := metrics.NewRecorder(t0, time.Second)
	front := &clientFrontend{inner: cluster.Frontend(), now: s.Now, t0: t0, keep: traced}
	pop := rbe.New(rbe.Config{
		Browsers:   sp.browsers,
		Profile:    rbe.Shopping,
		ThinkTime:  shopThinkTime,
		Population: proto.Info(),
		Seed:       seed*31 + 2,
		Recorder:   rec,
		Stop:       t0.Add(total),
	}, simSched{s: s}, front)
	pop.Start()
	s.At(t0.Add(sp.crashAt), func() {
		victim = cluster.LeaderOf(0)
		crashAt = s.Now()
		front.crashAt = crashAt
		if victim >= 0 {
			cluster.Crash(victim)
		}
	})

	var tr *shopTrace
	if traced {
		tr = &shopTrace{}
	}
	lastLeader := -1
	poll := func() {
		if tr == nil {
			return
		}
		lo, hi := int64(-1), int64(0)
		for i := 0; i < sp.servers; i++ {
			if srv := cluster.Server(i); srv != nil && srv.CPUQueue() > tr.cpuQueueMax {
				tr.cpuQueueMax = srv.CPUQueue()
			}
			r := cluster.Replica(i)
			if r == nil {
				continue
			}
			if i == victim && !crashAt.IsZero() {
				if tr.restartAt.IsZero() {
					tr.restartAt = s.Now()
				}
				if tr.readyAt.IsZero() && r.Ready() {
					tr.readyAt = s.Now()
				}
			}
			if !r.Ready() {
				continue
			}
			la := int64(r.LastApplied())
			if lo < 0 || la < lo {
				lo = la
			}
			if la > hi {
				hi = la
			}
			if b := r.BacklogHint(); b > tr.backlogMax {
				tr.backlogMax = b
			}
		}
		if lo >= 0 && hi-lo > tr.applyLagMax {
			tr.applyLagMax = hi - lo
		}
		if l := cluster.LeaderOf(0); l >= 0 && l != lastLeader {
			if lastLeader >= 0 {
				tr.leaderChanges++
			}
			if !crashAt.IsZero() && l != victim && tr.electionS == 0 {
				tr.electionS = s.Now().Sub(crashAt).Seconds()
			}
			lastLeader = l
		}
	}
	var recWall0 time.Time
	for end := t0.Add(total); s.Now().Before(end); {
		if traced {
			s.RunFor(shopPollEvery)
			poll()
		} else {
			s.RunFor(time.Second)
		}
		switch {
		case recWall0.IsZero() && !crashAt.IsZero():
			recWall0 = time.Now()
		case out.recoveryWall == 0 && !recoveredAt.IsZero():
			out.recoveryWall = time.Since(recWall0)
			out.recoveryVirtual = recoveredAt.Sub(crashAt)
		}
	}
	// Drain: every issued interaction must be answered.
	for deadline := s.Now().Add(60 * time.Second); front.answered < front.issued && s.Now().Before(deadline); {
		s.RunFor(time.Second)
		poll()
	}
	out.wall, out.cpu, out.virtual = time.Since(wall0), processCPU()-cpu0, s.Now().Sub(vstart)

	// Convergence: every replica reaches the same applied index and its
	// bookstore passes the consistency audit, read through Inspect.
	var applied []int64
	for deadline := s.Now().Add(60 * time.Second); s.Now().Before(deadline); {
		s.RunFor(time.Second)
		applied = applied[:0]
		for i := 0; i < sp.servers; i++ {
			if r := cluster.Replica(i); r != nil && r.Ready() {
				applied = append(applied, int64(r.LastApplied()))
			}
		}
		if len(applied) == sp.servers && allEqual(applied) {
			out.Converged = true
			out.LastApplied = applied[0]
			break
		}
	}
	inspected := 0
	for i := 0; i < sp.servers; i++ {
		if r := cluster.Replica(i); r != nil {
			// The web tier wraps the bookstore in its own machine, so the
			// audit reaches the store through the cluster, on the
			// replica's executor.
			r.Inspect(func(core.StateMachine) {
				inspected++
				for _, v := range cluster.Store(i).VerifyConsistency() {
					out.Violations = append(out.Violations, fmt.Sprintf("server %d: %s", i, v))
				}
			})
		}
	}
	s.RunFor(time.Second)
	if inspected != sp.servers {
		out.Violations = append(out.Violations, fmt.Sprintf("only %d of %d replicas inspected", inspected, sp.servers))
	}

	mStart, mEnd := int(sp.rampUp.Seconds()), int((sp.rampUp + sp.measure).Seconds())
	out.WIPS = rec.AWIPS(mStart, mEnd)
	var lats []float64
	for _, sm := range front.samples {
		if sm.atSec >= float64(mStart) && sm.atSec < float64(mEnd) {
			lats = append(lats, sm.ms)
		}
	}
	out.WirtP50, out.WirtP99 = pct(lats, 50), pct(lats, 99)
	out.Issued, out.Answered, out.Errs, out.Dups = front.issued, front.answered, front.errs, front.dups
	out.Victim = victim
	out.FenceViolations = cluster.FenceViolations()
	if !crashAt.IsZero() {
		crashSec := int(crashAt.Sub(t0).Seconds())
		recEnd := mEnd
		if !recoveredAt.IsZero() {
			out.RecoveryS = recoveredAt.Sub(crashAt).Seconds()
			if r := int(recoveredAt.Sub(t0).Seconds()); r < recEnd {
				recEnd = r
			}
		}
		ff := []metrics.Window{{From: mStart, To: crashSec}}
		if recEnd+1 < mEnd {
			ff = append(ff, metrics.Window{From: recEnd + 1, To: mEnd})
		}
		out.PV = rec.ComputePerformability(ff, metrics.Window{From: crashSec, To: recEnd}).PV
		if !front.firstWriteAfterCrash.IsZero() {
			out.FailoverS = front.firstWriteAfterCrash.Sub(crashAt).Seconds()
		}
	}
	out.capture = front.capture
	for _, sm := range front.samples {
		if sm.write {
			out.writes++
		}
	}
	if tr != nil {
		tr.recoveredAt = recoveredAt
		w, b := cluster.CheckpointIO()
		tr.ckptWrites, tr.ckptBytes = w-ckptW0, b-ckptB0
		for _, sm := range front.samples {
			if sm.write {
				tr.writeMs = append(tr.writeMs, sm.ms)
			} else {
				tr.readMs = append(tr.readMs, sm.ms)
			}
		}
		tr.proxy = cluster.ProxyStats()
		_, tr.fenceWaits, tr.stale = cluster.ReadStats(0)
		tr.downtime = cluster.Downtime()
		out.trace = tr
	}
	return out
}

func allEqual(xs []int64) bool {
	for _, x := range xs[1:] {
		if x != xs[0] {
			return false
		}
	}
	return true
}

// shopGates checks one pass's outputs.
func shopGates(r shopRun, rep *report) {
	rep.attempted += r.Issued
	rep.failed += r.Errs
	rep.gate(r.Answered == r.Issued, "%d interactions issued, %d answered", r.Issued, r.Answered)
	rep.gate(r.Dups == 0, "%d interactions answered twice", r.Dups)
	rep.gate(r.Victim >= 0, "no leader to crash")
	rep.gate(r.RecoveryS > 0, "the crashed leader never recovered")
	rep.gate(r.FailoverS > 0, "no write committed after the crash")
	rep.gate(r.Converged, "replicas did not converge to one applied index")
	rep.gate(len(r.Violations) == 0, "consistency audit: %v", r.Violations)
	rep.gate(r.FenceViolations == 0, "%d fenced reads served below their fence", r.FenceViolations)
}

// runShopping is the tpcw-shopping-crash workload.
func runShopping(cfg config, rep *report) {
	proto, setup := repeatSetup(5, func() *tpcw.Store { return paperShop.population(cfg.seed) })
	if cfg.trace {
		traceShopping(cfg, proto, rep)
		return
	}
	rep.set("setup_s", setup, "s")
	var cpus []float64
	var first shopRun
	t0 := time.Now()
	for {
		r := runShopPass(paperShop, proto, cfg.seed, false)
		cpus = append(cpus, r.cpu.Seconds())
		if len(cpus) == 1 {
			first = r
			shopGates(r, rep)
		} else {
			rep.gate(r.fingerprint() == first.fingerprint(), "repeat diverged:\n%s\n%s", first.fingerprint(), r.fingerprint())
		}
		if time.Since(t0)+r.wall > time.Duration(cfg.seconds*float64(time.Second)) {
			break
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s\n", first.fingerprint())
	rep.set("cost_s", median(cpus), "s")
	rep.set("rate_per_s", first.WIPS, "1/s")
	rep.set("p50_ms", first.WirtP50, "ms")
	rep.set("p99_ms", first.WirtP99, "ms")
}
