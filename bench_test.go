// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§5). Each benchmark regenerates the experiment on the
// simulated cluster and prints the same rows/series the paper reports;
// key scalars are also attached as benchmark metrics.
//
// Experiments are memoized per process, so benchmarks that share runs
// (the paper's Figure 5 plots the Table 1 runs) pay for them once. Run
// with:
//
//	go test -bench=. -benchmem
package robuststore_test

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"robuststore/internal/exp"
	"robuststore/internal/rbe"
	"robuststore/internal/shard"
)

// benchSeed fixes every experiment; results are exactly reproducible.
const benchSeed = 1

// BenchmarkFigure3Speedup regenerates Figure 3: saturation WIPS/WIRT for
// 4-12 replicas under the three TPC-W profiles, with S_k speedups.
func BenchmarkFigure3Speedup(b *testing.B) {
	var r exp.SpeedupResult
	for i := 0; i < b.N; i++ {
		r = exp.Speedup(benchSeed)
	}
	exp.PrintSpeedup(os.Stdout, r)
	last := func(p rbe.Profile) exp.ScalePoint {
		pts := r.Points[p]
		return pts[len(pts)-1]
	}
	b.ReportMetric(last(rbe.Browsing).Speedup, "S12_browsing")
	b.ReportMetric(last(rbe.Shopping).Speedup, "S12_shopping")
	b.ReportMetric(last(rbe.Ordering).Speedup, "S12_ordering")
}

// BenchmarkFigure4Scaleup regenerates Figure 4: WIPS/WIRT at 1000 offered
// WIPS for 4-12 replicas, with regression fits and the WIPS-WIRT r².
func BenchmarkFigure4Scaleup(b *testing.B) {
	var r exp.ScaleupResult
	for i := 0; i < b.N; i++ {
		r = exp.Scaleup(benchSeed)
	}
	exp.PrintScaleup(os.Stdout, r)
	b.ReportMetric(r.Correlation[rbe.Shopping], "r2_shopping")
	b.ReportMetric(r.Correlation[rbe.Ordering], "r2_ordering")
}

// BenchmarkFigure5OneCrashHistogram regenerates Figure 5: per-second WIPS
// of a five-replica RobustStore with one crash at t=270 s, per profile.
func BenchmarkFigure5OneCrashHistogram(b *testing.B) {
	var m map[string]exp.RunResult
	for i := 0; i < b.N; i++ {
		m = exp.FaultMatrix(exp.OneCrash, benchSeed)
	}
	for _, profile := range rbe.Profiles {
		exp.PrintHistogram(os.Stdout, m["5/"+profile.String()[:1]])
	}
	b.ReportMetric(m["5/o"].Perf.PV, "PV_5o_pct")
}

// BenchmarkFigure6RecoveryTimes regenerates Figure 6: one-crash recovery
// time for {5,8} replicas x 3 profiles x {300,500,700} MB states.
func BenchmarkFigure6RecoveryTimes(b *testing.B) {
	var pts []exp.RecoveryTimePoint
	for i := 0; i < b.N; i++ {
		pts = exp.RecoveryTimes(benchSeed)
	}
	exp.PrintRecoveryTimes(os.Stdout, pts)
	for _, p := range pts {
		if p.Servers == 5 && p.Profile == rbe.Browsing && p.StateMB == 500 {
			b.ReportMetric(p.RecoverySec, "recovery_5b_500MB_s")
		}
	}
}

// BenchmarkTable1OneCrashPerformability regenerates Table 1.
func BenchmarkTable1OneCrashPerformability(b *testing.B) {
	var m map[string]exp.RunResult
	for i := 0; i < b.N; i++ {
		m = exp.FaultMatrix(exp.OneCrash, benchSeed)
	}
	exp.PrintPerformability(os.Stdout, "Table 1 — One failure: performability", m)
	b.ReportMetric(m["5/s"].Perf.FailureFreeAWIPS, "ffAWIPS_5s")
	b.ReportMetric(m["5/s"].Perf.PV, "PV_5s_pct")
}

// BenchmarkTable2OneCrashAccuracy regenerates Table 2.
func BenchmarkTable2OneCrashAccuracy(b *testing.B) {
	var m map[string]exp.RunResult
	for i := 0; i < b.N; i++ {
		m = exp.FaultMatrix(exp.OneCrash, benchSeed)
	}
	exp.PrintAccuracy(os.Stdout, "Table 2 — One failure: accuracy (%)", m)
	exp.PrintDependability(os.Stdout, "One failure: availability/autonomy", m)
	b.ReportMetric(m["5/s"].Accuracy, "accuracy_5s_pct")
}

// BenchmarkFigure7TwoCrashHistogram regenerates Figure 7: two overlapped
// crashes (t=240 s and t=270 s) on five replicas.
func BenchmarkFigure7TwoCrashHistogram(b *testing.B) {
	var m map[string]exp.RunResult
	for i := 0; i < b.N; i++ {
		m = exp.FaultMatrix(exp.TwoCrashes, benchSeed)
	}
	for _, profile := range rbe.Profiles {
		exp.PrintHistogram(os.Stdout, m["5/"+profile.String()[:1]])
	}
	b.ReportMetric(m["5/b"].Perf.PV, "PV_5b_pct")
}

// BenchmarkTable3TwoCrashPerformability regenerates Table 3.
func BenchmarkTable3TwoCrashPerformability(b *testing.B) {
	var m map[string]exp.RunResult
	for i := 0; i < b.N; i++ {
		m = exp.FaultMatrix(exp.TwoCrashes, benchSeed)
	}
	exp.PrintPerformability(os.Stdout, "Table 3 — Two overlapped crashes: performability", m)
	b.ReportMetric(m["5/s"].Perf.PV, "PV_5s_pct")
}

// BenchmarkTable4TwoCrashAccuracy regenerates Table 4.
func BenchmarkTable4TwoCrashAccuracy(b *testing.B) {
	var m map[string]exp.RunResult
	for i := 0; i < b.N; i++ {
		m = exp.FaultMatrix(exp.TwoCrashes, benchSeed)
	}
	exp.PrintAccuracy(os.Stdout, "Table 4 — Two overlapped crashes: accuracy (%)", m)
	exp.PrintDependability(os.Stdout, "Two crashes: availability/autonomy", m)
	b.ReportMetric(m["5/o"].Accuracy, "accuracy_5o_pct")
}

// BenchmarkFigure8DelayedRecoveryHistogram regenerates Figure 8: both
// replicas crash at t=240 s; one recovers autonomously, the other by a
// manual intervention at t=390 s.
func BenchmarkFigure8DelayedRecoveryHistogram(b *testing.B) {
	var m map[string]exp.RunResult
	for i := 0; i < b.N; i++ {
		m = exp.FaultMatrix(exp.DelayedRecovery, benchSeed)
	}
	for _, profile := range rbe.Profiles {
		exp.PrintHistogram(os.Stdout, m["5/"+profile.String()[:1]])
	}
	b.ReportMetric(m["5/s"].PerfR2.PV, "PV_R2_5s_pct")
}

// BenchmarkTable5DelayedRecoveryPerformability regenerates Table 5.
func BenchmarkTable5DelayedRecoveryPerformability(b *testing.B) {
	var m map[string]exp.RunResult
	for i := 0; i < b.N; i++ {
		m = exp.FaultMatrix(exp.DelayedRecovery, benchSeed)
	}
	exp.PrintDelayedPerformability(os.Stdout, m)
	b.ReportMetric(m["5/s"].Perf.PV, "PV_R1_5s_pct")
}

// BenchmarkTable6DelayedRecoveryAccuracy regenerates Table 6 plus the
// autonomy measure (one manual intervention out of two faults).
func BenchmarkTable6DelayedRecoveryAccuracy(b *testing.B) {
	var m map[string]exp.RunResult
	for i := 0; i < b.N; i++ {
		m = exp.FaultMatrix(exp.DelayedRecovery, benchSeed)
	}
	exp.PrintAccuracy(os.Stdout, "Table 6 — Delayed recovery: accuracy (%)", m)
	exp.PrintDependability(os.Stdout, "Delayed recovery: availability/autonomy", m)
	b.ReportMetric(m["5/s"].Autonomy, "autonomy")
}

// BenchmarkShardScaling measures the throughput-vs-shard-count curve of
// the hash-partitioned store (internal/shard): aggregate committed
// actions/sec under the same offered load for 1, 2 and 4 independent
// Paxos groups. This is the scaling dimension past the paper's
// single-group design; the 4-vs-1 ratio is the headline metric (≥1.5×
// required, ~2-3× typical: one group saturates its WAL group-commit
// pipeline well below the offered rate).
func BenchmarkShardScaling(b *testing.B) {
	counts := []int{1, 2, 4}
	results := make([]shard.ThroughputResult, len(counts))
	for i := 0; i < b.N; i++ {
		for j, n := range counts {
			results[j] = shard.MeasureThroughput(shard.ThroughputConfig{
				Shards: n, Seed: benchSeed,
			})
		}
	}
	fmt.Printf("Shard scaling — committed actions/sec at %d offered actions/sec\n",
		results[0].Offered)
	for _, r := range results {
		fmt.Printf("  %d shard(s): %8.0f actions/sec  (per shard %v)\n",
			r.Shards, r.PerSec, r.PerShard)
	}
	b.ReportMetric(results[0].PerSec, "aps_1shard")
	b.ReportMetric(results[1].PerSec, "aps_2shards")
	b.ReportMetric(results[2].PerSec, "aps_4shards")
	b.ReportMetric(results[2].PerSec/results[0].PerSec, "speedup_4v1")
}

// BenchmarkShardedRecovery tracks recovery behaviour as the deployment
// fans out across Paxos groups: the member-every-group faultload (one
// replica of every group crashed simultaneously) at 1, 2 and 4 shards,
// reporting mean recovery time, worst-group availability and aggregate
// throughput. Recovery time should stay roughly flat with shard count
// (each group recovers independently), which is the dependability story
// behind the shard layer.
func BenchmarkShardedRecovery(b *testing.B) {
	counts := []int{1, 2, 4}
	var pts []exp.ShardedRecoveryPoint
	for i := 0; i < b.N; i++ {
		pts = exp.ShardedRecoveryCurve(benchSeed, counts)
	}
	exp.PrintShardedRecovery(os.Stdout, pts)
	for _, p := range pts {
		b.ReportMetric(p.MeanRecoverySec, fmt.Sprintf("rec_%dshard_s", p.Shards))
		b.ReportMetric(p.WorstGroupAvail, fmt.Sprintf("avail_%dshard", p.Shards))
	}
}

// BenchmarkCheckpointRecovery tracks the incremental-checkpoint pipeline
// against monolithic full-state checkpoints at the paper's default 60 s
// interval and 500 MB state: one-crash recovery time, per-checkpoint and
// per-second checkpoint disk traffic, and throughput — plus the sustained
// ordered-actions/s of the sharded store at 1 and 4 groups. The results
// are also written to BENCH_checkpoint.json so the perf trajectory is
// machine-readable from this PR on.
func BenchmarkCheckpointRecovery(b *testing.B) {
	var pts []exp.CheckpointPoint
	for i := 0; i < b.N; i++ {
		pts = exp.CheckpointCurve(exp.CheckpointCurveConfig{
			Servers: 3, StateMB: 500, Browsers: 300,
			Measure: 150 * time.Second, Intervals: []int{60}, Seed: 3,
		})
	}
	exp.PrintCheckpointCurve(os.Stdout, pts)
	full, incr := pts[0], pts[1]
	t1 := shard.MeasureThroughput(shard.ThroughputConfig{Shards: 1, Seed: benchSeed})
	t4 := shard.MeasureThroughput(shard.ThroughputConfig{Shards: 4, Seed: benchSeed})

	report := struct {
		RecoverySecFull60 float64 `json:"recovery_sec_full_60s"`
		RecoverySecIncr60 float64 `json:"recovery_sec_incremental_60s"`
		PerCkptMBFull     float64 `json:"mb_per_checkpoint_full"`
		PerCkptMBIncr     float64 `json:"mb_per_checkpoint_incremental"`
		CkptMBPerSecFull  float64 `json:"checkpoint_mb_per_sec_full"`
		CkptMBPerSecIncr  float64 `json:"checkpoint_mb_per_sec_incremental"`
		AWIPSFull         float64 `json:"awips_full"`
		AWIPSIncr         float64 `json:"awips_incremental"`
		ActionsPerSec1    float64 `json:"actions_per_sec_1shard"`
		ActionsPerSec4    float64 `json:"actions_per_sec_4shards"`
	}{
		RecoverySecFull60: full.RecoverySec,
		RecoverySecIncr60: incr.RecoverySec,
		PerCkptMBFull:     full.PerCkptMB,
		PerCkptMBIncr:     incr.PerCkptMB,
		CkptMBPerSecFull:  full.CkptMBPerSec,
		CkptMBPerSecIncr:  incr.CkptMBPerSec,
		AWIPSFull:         full.AWIPS,
		AWIPSIncr:         incr.AWIPS,
		ActionsPerSec1:    t1.PerSec,
		ActionsPerSec4:    t4.PerSec,
	}
	if data, err := json.MarshalIndent(report, "", "  "); err == nil {
		if err := os.WriteFile("BENCH_checkpoint.json", append(data, '\n'), 0o644); err != nil {
			b.Logf("BENCH_checkpoint.json not written: %v", err)
		}
	}
	b.ReportMetric(full.RecoverySec, "recovery_full_s")
	b.ReportMetric(incr.RecoverySec, "recovery_incr_s")
	b.ReportMetric(full.PerCkptMB, "MB_per_ckpt_full")
	b.ReportMetric(incr.PerCkptMB, "MB_per_ckpt_incr")
	b.ReportMetric(t1.PerSec, "aps_1shard")
	b.ReportMetric(t4.PerSec, "aps_4shards")
}

// BenchmarkPartitionRecovery measures the leader-isolation faultload on
// the reference deployment: how long until the group detects the silent
// leader and throughput is back (failover), how long to reabsorb the
// stale ex-leader after the network heals, and the AWIPS level during and
// after the partition window. Results are written to BENCH_partition.json
// so the partition-recovery trajectory is machine-readable.
func BenchmarkPartitionRecovery(b *testing.B) {
	var pt exp.PartitionBenchPoint
	for i := 0; i < b.N; i++ {
		pt = exp.PartitionRecoveryBench(benchSeed)
	}
	exp.PrintPartitionBench(os.Stdout, pt)
	report := struct {
		DetectSec   float64 `json:"detect_failover_sec"`
		ReabsorbSec float64 `json:"post_heal_reabsorb_sec"`
		FFAWIPS     float64 `json:"awips_failure_free"`
		WindowAWIPS float64 `json:"awips_during_window"`
		PostAWIPS   float64 `json:"awips_after_heal"`
	}{pt.DetectSec, pt.ReabsorbSec, pt.FFAWIPS, pt.WindowAWIPS, pt.PostAWIPS}
	if data, err := json.MarshalIndent(report, "", "  "); err == nil {
		if err := os.WriteFile("BENCH_partition.json", append(data, '\n'), 0o644); err != nil {
			b.Logf("BENCH_partition.json not written: %v", err)
		}
	}
	b.ReportMetric(pt.DetectSec, "detect_s")
	b.ReportMetric(pt.ReabsorbSec, "reabsorb_s")
	b.ReportMetric(pt.WindowAWIPS, "window_WIPS")
	b.ReportMetric(pt.PostAWIPS, "post_WIPS")
}

// BenchmarkReadScale measures the read scale-out tier: learner-backed
// readers added to a 3-voter group under the saturated Browsing profile,
// reporting read actions/s against read-serving node count with the
// staleness accounting (fence waits, TooStale fallbacks) beside it. The
// headline metric is the read-throughput ratio of 3 voters + 3 learners
// over 3 voters alone (≥2× required: readers carry no write quorum duty,
// so each one adds a nearly full node of read capacity). Results are
// written to BENCH_readscale.json.
func BenchmarkReadScale(b *testing.B) {
	var pts []exp.ReadScalePoint
	for i := 0; i < b.N; i++ {
		pts = exp.ReadScale(exp.ReadScaleConfig{Seed: benchSeed, Counts: []int{0, 3}})
	}
	exp.PrintReadScale(os.Stdout, pts)
	base, scaled := pts[0], pts[len(pts)-1]
	speedup := scaled.ReadsPerSec / base.ReadsPerSec
	report := struct {
		Points      []exp.ReadScalePoint `json:"points"`
		ReadSpeedup float64              `json:"read_speedup_6v3"`
	}{pts, speedup}
	if data, err := json.MarshalIndent(report, "", "  "); err == nil {
		if err := os.WriteFile("BENCH_readscale.json", append(data, '\n'), 0o644); err != nil {
			b.Logf("BENCH_readscale.json not written: %v", err)
		}
	}
	b.ReportMetric(base.ReadsPerSec, "reads_per_sec_3nodes")
	b.ReportMetric(scaled.ReadsPerSec, "reads_per_sec_6nodes")
	b.ReportMetric(speedup, "read_speedup_6v3")
	if speedup < 2 {
		b.Errorf("read speedup 3v→3v+3l = %.2f×, want ≥2×", speedup)
	}
}

// BenchmarkTxn measures cross-shard transactions (2PC over the Paxos
// groups) under the transaction-window faultloads: coordinator crash
// between prepare and commit, participant group severed, participant
// crash holding prepared branches. Each run drives gift purchases and
// inventory sweeps at 2 txn/s beside the RBE load and audits atomicity
// at run end; any lost, duplicated or half-applied transaction fails the
// benchmark. Results are written to BENCH_txn.json.
func BenchmarkTxn(b *testing.B) {
	var rs []exp.RunResult
	for i := 0; i < b.N; i++ {
		rs = exp.TxnSuite(exp.ShardedSuiteConfig{Seed: benchSeed})
	}
	type row struct {
		Scenario    string  `json:"scenario"`
		Issued      int     `json:"issued"`
		CrossShard  int     `json:"cross_shard"`
		Committed   int     `json:"committed"`
		Aborted     int     `json:"aborted"`
		Unresolved  int     `json:"unresolved"`
		Violations  int     `json:"violations"`
		BlockedSec  float64 `json:"blocked_sec"`
		AWIPS       float64 `json:"awips"`
		Availabilty float64 `json:"availability"`
	}
	report := struct {
		Rows []row `json:"rows"`
	}{}
	committed, violations := 0, 0
	var blocked float64
	for _, r := range rs {
		exp.PrintTxnReport(os.Stdout, r)
		fmt.Println()
		var blk float64
		for _, g := range r.PerGroup {
			blk += g.TxnBlockedSec
		}
		report.Rows = append(report.Rows, row{
			Scenario:    r.Cfg.Faultload.Name,
			Issued:      r.Txn.Issued,
			CrossShard:  r.Txn.CrossShard,
			Committed:   r.Txn.Committed,
			Aborted:     r.Txn.Aborted,
			Unresolved:  r.Txn.Unresolved,
			Violations:  r.Txn.Violations(),
			BlockedSec:  blk,
			AWIPS:       r.AWIPS,
			Availabilty: r.Availability,
		})
		committed += r.Txn.Committed
		violations += r.Txn.Violations()
		blocked += blk
	}
	if data, err := json.MarshalIndent(report, "", "  "); err == nil {
		if err := os.WriteFile("BENCH_txn.json", append(data, '\n'), 0o644); err != nil {
			b.Logf("BENCH_txn.json not written: %v", err)
		}
	}
	b.ReportMetric(float64(committed), "txns_committed")
	b.ReportMetric(blocked, "key_blocked_s")
	if violations > 0 {
		b.Errorf("cross-shard atomicity: %d violation(s) across the faultload suite", violations)
	}
}

// BenchmarkAblationFastVsClassicPaxos compares Treplica's Fast Paxos mode
// against classic-only Paxos under the write-heavy ordering profile — the
// protocol choice §2 motivates.
func BenchmarkAblationFastVsClassicPaxos(b *testing.B) {
	var a exp.AblationResult
	for i := 0; i < b.N; i++ {
		a = exp.AblationFastPaxos(benchSeed)
	}
	exp.PrintAblation(os.Stdout, a)
	b.ReportMetric(a.BaselineWIPS, "fast_WIPS")
	b.ReportMetric(a.VariantWIPS, "classic_WIPS")
}

// BenchmarkAblationParallelRecovery compares Treplica's parallel recovery
// (checkpoint load overlapped with suffix learning, §5.4) against a
// sequential variant, on the recovery-time metric.
func BenchmarkAblationParallelRecovery(b *testing.B) {
	var par, seq exp.RunResult
	for i := 0; i < b.N; i++ {
		par = exp.Run(exp.RunConfig{Profile: rbe.Ordering, Servers: 5, StateMB: 500,
			Fault: exp.OneCrash, Seed: benchSeed})
		seq = exp.Run(exp.RunConfig{Profile: rbe.Ordering, Servers: 5, StateMB: 500,
			Fault: exp.OneCrash, Seed: benchSeed, SeqRec: true})
	}
	if len(par.RecoveryDur) > 0 {
		b.ReportMetric(par.RecoveryDur[0], "parallel_recovery_s")
	}
	if len(seq.RecoveryDur) > 0 {
		b.ReportMetric(seq.RecoveryDur[0], "sequential_recovery_s")
	}
}

// BenchmarkAblationBatching compares group-commit batching against
// one-command-per-consensus-value under the ordering profile.
func BenchmarkAblationBatching(b *testing.B) {
	var batched, unbatched exp.RunResult
	for i := 0; i < b.N; i++ {
		batched = exp.Run(exp.RunConfig{Profile: rbe.Ordering, Servers: 5, StateMB: 300,
			Measure: 150 * time.Second, Seed: benchSeed})
		unbatched = exp.Run(exp.RunConfig{Profile: rbe.Ordering, Servers: 5, StateMB: 300,
			Measure: 150 * time.Second, Seed: benchSeed, NoBatch: true})
	}
	b.ReportMetric(batched.AWIPS, "batched_WIPS")
	b.ReportMetric(unbatched.AWIPS, "unbatched_WIPS")
	b.ReportMetric(batched.WIRTms, "batched_WIRT_ms")
	b.ReportMetric(unbatched.WIRTms, "unbatched_WIRT_ms")
}

// BenchmarkBatching tracks the WAL group-commit matrix: committed
// actions/s against consensus pipeline depth on the default simulated
// disk, at 1 and 4 shards, with the pre-group-commit engine shape
// (shard.MeasureThroughput's reference pipeline: batch 8, 4 in flight)
// as the baseline row. Results are written to BENCH_batching.json; the headline metric is
// the best single-group speedup over that baseline.
func BenchmarkBatching(b *testing.B) {
	var r exp.BatchingResult
	for i := 0; i < b.N; i++ {
		r = exp.Batching(exp.BatchingConfig{Seed: benchSeed})
	}
	exp.PrintBatching(os.Stdout, r)
	report := struct {
		Points             []exp.BatchingPoint `json:"points"`
		SingleGroupSpeedup float64             `json:"single_group_speedup"`
	}{r.Points, r.SingleGroupSpeedup()}
	if data, err := json.MarshalIndent(report, "", "  "); err == nil {
		if err := os.WriteFile("BENCH_batching.json", append(data, '\n'), 0o644); err != nil {
			b.Logf("BENCH_batching.json not written: %v", err)
		}
	}
	var base1, best1 float64
	for _, pt := range r.Points {
		if pt.Shards != 1 {
			continue
		}
		if pt.Baseline {
			base1 = pt.PerSec
		} else if pt.PerSec > best1 {
			best1 = pt.PerSec
		}
	}
	b.ReportMetric(base1, "aps_1shard_base")
	b.ReportMetric(best1, "aps_1shard_best")
	b.ReportMetric(r.SingleGroupSpeedup(), "speedup_1shard")
}
