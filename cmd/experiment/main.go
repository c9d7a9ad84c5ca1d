// Command experiment reproduces the paper's evaluation from the command
// line: it runs any (or all) of the experiments behind Figures 3-8 and
// Tables 1-6 on the simulated cluster and prints the same rows and series
// the paper reports.
//
// Usage:
//
//	experiment -run all
//	experiment -run speedup
//	experiment -run readscale -short
//	experiment -run one-crash -servers 5 -profile ordering
//	experiment -run recovery-times
//	experiment -run sharded -shards 2 -short
//	experiment -run sharded-recovery
//	experiment -run checkpoint -short
//	experiment -run partition -shards 2 -short
//	experiment -run slowdisk
//	experiment -run gray -short
//	experiment -run hunt -budget 16
//	experiment -run hunt -short -pin internal/exp/testdata/pinned
//	experiment -run batching -short
//
// The batching mode prints the WAL group-commit matrix: committed
// actions/s against consensus pipeline depth, with the pre-group-commit
// engine shape as the baseline row.
//
// The partition mode runs the correlated network faultloads (leader
// isolation, minority split, whole-group isolation, asymmetric one-way
// loss) and slowdisk the failing-disk straggler; both print partition /
// degradation windows beside the per-group dependability reports.
//
// The gray mode runs the gray-failure scenarios — a member that keeps
// acking probes while erroring or slow-walking requests, a leader doing
// the same, link latency inflation, and partition flapping — none of
// which probe-timeout detection can see.
//
// The hunt mode drives the faultload DSL generatively: it samples -budget
// random schedules from the grammar, judges each run with failure oracles
// (fence violations, availability floor, write-wedge), delta-debugs every
// failure to a minimal schedule, and — with -pin — writes each survivor
// as a reproducible JSON counterexample. The process exits 1 when the
// hunt finds anything, so a scheduled CI job fails loudly.
//
// The sharded modes run the faultload-DSL scenarios (one member of every
// group, rolling crashes, whole-group outage) against a Shards×Servers
// deployment and print per-group + aggregate dependability reports;
// -short shrinks them to a CI-sized smoke run. The checkpoint mode
// sweeps the checkpoint interval, comparing monolithic full-state
// checkpoints against the incremental delta-chain pipeline.
//
// Every run is deterministic for a given -seed.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"robuststore/internal/exp"
	"robuststore/internal/exp/search"
	"robuststore/internal/rbe"
)

func main() {
	var (
		which   = flag.String("run", "all", "experiment: speedup | scaleup | readscale | one-crash | two-crashes | delayed | recovery-times | batching | ablations | sharded | sharded-recovery | rebalance | checkpoint | partition | slowdisk | gray | txn | hunt | all")
		seed    = flag.Uint64("seed", 1, "root seed (runs are deterministic per seed)")
		servers = flag.Int("servers", 5, "replication degree for single-run modes")
		profile = flag.String("profile", "shopping", "workload profile for single-run modes: browsing | shopping | ordering")
		shards  = flag.Int("shards", 2, "Paxos group count for the sharded modes")
		short   = flag.Bool("short", false, "shrink the sharded suite (smoke run for CI)")
		budget  = flag.Int("budget", 16, "schedules the hunt mode tries")
		pin     = flag.String("pin", "", "directory the hunt mode pins found counterexamples under (empty: report only)")
	)
	flag.Parse()

	if err := run(*which, *seed, *servers, *profile, *shards, *short, *budget, *pin); err != nil {
		fmt.Fprintln(os.Stderr, "experiment:", err)
		os.Exit(1)
	}
}

func parseProfile(s string) (rbe.Profile, error) {
	switch s {
	case "browsing":
		return rbe.Browsing, nil
	case "shopping":
		return rbe.Shopping, nil
	case "ordering":
		return rbe.Ordering, nil
	default:
		return 0, fmt.Errorf("unknown profile %q", s)
	}
}

func run(which string, seed uint64, servers int, profileName string, shards int, short bool, budget int, pin string) error {
	out := os.Stdout
	switch which {
	case "gray":
		// Gray failures: probe-healthy members erroring or slow-walking
		// requests, latency-inflated links, partition flapping — fault
		// windows on the paper's x-axis, per-group dependability beside.
		cfg := exp.ShardedSuiteConfig{Shards: shards, Seed: seed}
		if short {
			cfg.Browsers = 300
			cfg.Measure = 150 * time.Second
		}
		for _, r := range exp.GraySuite(cfg) {
			exp.PrintHistogram(out, r)
			exp.PrintShardedDependability(out, r)
			fmt.Fprintln(out)
		}
	case "txn":
		// Cross-shard transactions under 2PC-window faults: coordinator
		// crash between prepare and commit, participant group severed,
		// participant crash holding prepared branches — each run audited
		// for atomicity (nothing lost, duplicated or half-applied).
		cfg := exp.ShardedSuiteConfig{Shards: shards, Seed: seed}
		if short {
			cfg.Browsers = 300
			cfg.Measure = 150 * time.Second
		}
		violations := 0
		for _, r := range exp.TxnSuite(cfg) {
			exp.PrintTxnReport(out, r)
			fmt.Fprintln(out)
			violations += r.Txn.Violations()
		}
		if violations > 0 {
			return fmt.Errorf("txn: %d atomicity violation(s)", violations)
		}
	case "hunt":
		// Generative fault search: random schedules, oracle judgement,
		// shrinking, pinning. Exits 1 on any finding so CI fails loudly.
		cfg := search.Config{Seed: seed, Budget: budget, PinDir: pin, Log: out}
		if short {
			cfg.Budget = 2
			cfg.Browsers = 200
			cfg.ShrinkBudget = 12
		}
		rep := search.Hunt(cfg)
		search.PrintReport(out, rep)
		if len(rep.Findings) > 0 {
			os.Exit(1)
		}
	case "sharded":
		cfg := exp.ShardedSuiteConfig{Shards: shards, Seed: seed}
		if short {
			cfg.Browsers = 300
			cfg.Measure = 150 * time.Second
		}
		for _, r := range exp.ShardedSuite(cfg) {
			exp.PrintHistogram(out, r)
			exp.PrintShardedDependability(out, r)
			fmt.Fprintln(out)
		}
	case "partition":
		// Correlated network faults: leader isolation, minority split,
		// whole-group isolation (proxy path severed), asymmetric one-way
		// loss — partition windows on the paper's x-axis with per-group
		// dependability reports.
		cfg := exp.ShardedSuiteConfig{Shards: shards, Seed: seed}
		if short {
			cfg.Browsers = 300
			cfg.Measure = 150 * time.Second
		}
		for _, r := range exp.PartitionSuite(cfg) {
			exp.PrintHistogram(out, r)
			exp.PrintShardedDependability(out, r)
			fmt.Fprintln(out)
		}
	case "slowdisk":
		// The failing-disk straggler: one member's disk degraded live,
		// dragging group commit and checkpoints without tripping crash
		// detection.
		cfg := exp.ShardedSuiteConfig{Shards: shards, Seed: seed}
		if short {
			cfg.Browsers = 300
			cfg.Measure = 150 * time.Second
		}
		r := exp.SlowDiskScenario(cfg)
		exp.PrintHistogram(out, r)
		exp.PrintShardedDependability(out, r)
	case "rebalance":
		// Resharding under fault: add a group live at t=240 s, kill a
		// source-group member mid-copy, report the migration window and
		// per-group dependability (new group included).
		cfg := exp.ShardedSuiteConfig{Shards: shards, Seed: seed}
		if short {
			cfg.Browsers = 300
			cfg.Measure = 150 * time.Second
		}
		r := exp.RebalanceScenario(cfg)
		exp.PrintHistogram(out, r)
		exp.PrintRebalance(out, r)
	case "checkpoint":
		// Recovery time vs checkpoint interval (the Figure 6 trade-off),
		// monolithic full-state checkpoints vs the incremental
		// delta-chain pipeline at equal state size.
		cfg := exp.CheckpointCurveConfig{Seed: seed}
		if short {
			cfg.Servers = 3
			cfg.StateMB = 300
			cfg.Browsers = 300
			cfg.Measure = 150 * time.Second
			cfg.Intervals = []int{20, 60}
		}
		exp.PrintCheckpointCurve(out, exp.CheckpointCurve(cfg))
	case "sharded-recovery":
		// Sweep doubling shard counts up to -shards (e.g. -shards 8 →
		// 1, 2, 4, 8).
		var counts []int
		for n := 1; n < shards; n *= 2 {
			counts = append(counts, n)
		}
		counts = append(counts, shards)
		if short && len(counts) > 2 {
			counts = counts[:2]
		}
		exp.PrintShardedRecovery(out, exp.ShardedRecoveryCurve(seed, counts))
	case "readscale":
		// Read scale-out: learner-backed readers per group under the
		// Browsing profile — read throughput vs read-serving node count,
		// with fence-wait / stale-serve accounting.
		cfg := exp.ReadScaleConfig{Seed: seed}
		if short {
			cfg.Browsers = 300
			cfg.Measure = 60 * time.Second
			cfg.Counts = []int{0, 3}
		}
		exp.PrintReadScale(out, exp.ReadScale(cfg))
	case "speedup":
		exp.PrintSpeedup(out, exp.Speedup(seed))
	case "scaleup":
		exp.PrintScaleup(out, exp.Scaleup(seed))
	case "one-crash":
		profile, err := parseProfile(profileName)
		if err != nil {
			return err
		}
		r := exp.Run(exp.RunConfig{
			Profile: profile, Servers: servers, StateMB: 500,
			Fault: exp.OneCrash, Seed: seed,
		})
		exp.PrintHistogram(out, r)
		m := exp.FaultMatrix(exp.OneCrash, seed)
		exp.PrintPerformability(out, "Table 1 — One failure: performability", m)
		exp.PrintAccuracy(out, "Table 2 — One failure: accuracy (%)", m)
	case "two-crashes":
		m := exp.FaultMatrix(exp.TwoCrashes, seed)
		for _, p := range rbe.Profiles {
			exp.PrintHistogram(out, m["5/"+p.String()[:1]])
		}
		exp.PrintPerformability(out, "Table 3 — Two overlapped crashes: performability", m)
		exp.PrintAccuracy(out, "Table 4 — Two overlapped crashes: accuracy (%)", m)
	case "delayed":
		m := exp.FaultMatrix(exp.DelayedRecovery, seed)
		for _, p := range rbe.Profiles {
			exp.PrintHistogram(out, m["5/"+p.String()[:1]])
		}
		exp.PrintDelayedPerformability(out, m)
		exp.PrintAccuracy(out, "Table 6 — Delayed recovery: accuracy (%)", m)
		exp.PrintDependability(out, "Delayed recovery: availability/autonomy", m)
	case "recovery-times":
		exp.PrintRecoveryTimes(out, exp.RecoveryTimes(seed))
	case "batching":
		// WAL group commit: ordered actions/s vs pipeline depth on the
		// same simulated disk, against the pre-group-commit engine shape
		// as baseline (ROADMAP item 2).
		cfg := exp.BatchingConfig{Seed: seed}
		if short {
			cfg.Shards = []int{1}
			cfg.Warmup = time.Second
			cfg.Measure = 2 * time.Second
		}
		exp.PrintBatching(out, exp.Batching(cfg))
	case "ablations":
		exp.PrintAblation(out, exp.AblationFastPaxos(seed))
	case "all":
		for _, w := range []string{"speedup", "scaleup", "readscale", "one-crash", "two-crashes", "delayed", "recovery-times", "batching", "sharded", "sharded-recovery", "rebalance", "checkpoint", "partition", "slowdisk", "gray", "txn", "ablations"} {
			fmt.Fprintln(out)
			if err := run(w, seed, servers, profileName, shards, short, budget, pin); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown experiment %q", which)
	}
	return nil
}
