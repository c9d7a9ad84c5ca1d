// Package robuststore is a from-scratch Go reproduction of "Dynamic
// Content Web Applications: Crash, Failover, and Recovery Analysis"
// (Vieira, Buzato, Zwaenepoel — DSN 2009): the Treplica replication
// middleware (Paxos + Fast Paxos, asynchronous persistent queue,
// replicated state machine with checkpoint-based recovery), the TPC-W
// on-line bookstore retrofitted onto it (RobustStore), and the full
// dependability-benchmark harness — workloads, faultloads and measures —
// that regenerates every table and figure of the paper's evaluation.
//
// Beyond the paper, the store scales out horizontally: internal/shard
// hash-partitions the state across N independent Paxos groups behind a
// deterministic key router, the web tier routes client sessions to their
// owning group, and both the live command (cmd/robuststore -shards) and
// the benchmark harness (BenchmarkShardScaling) expose the
// throughput-vs-shard-count dimension.
//
// Routing is explicit, epoch-versioned state, not arithmetic: a
// shard.RoutingTable maps hash-space slices to groups (epoch 0
// reproduces the historical hash%N mapping bit for bit, golden-tested),
// and live migration advances the epoch without downtime. One migration
// driver (shard.Migration) boots a new group, drains and fences the
// source logs with ordered barriers, streams the moving slices' rows
// through the ordered log as keyed snapshots (core.PartitionedMachine,
// tpcw's ExportOwned/ImportOwned/DropOwned), and publishes the next
// epoch with one atomic cutover. It runs over two hosts
// (shard.MigrationHost), which keep only what differs between them: the
// generic store (shard.Store.Rebalance, cmd/robuststore -rebalance)
// partitions keyed rows, buffers frozen writes and drops moved rows at
// cleanup; the web tier (webtier.Cluster.Rebalance, cmd/experiment -run
// rebalance) partitions client sessions, requeues frozen writes at the
// proxy and keeps the shared rows. Writes to moving keys are delayed by
// the migration window, never failed, and the proxy transparently
// re-routes requests that race the cutover (WrongEpoch redirects).
//
// Checkpoints are incremental: a state machine that implements
// core.DeltaSnapshotter (the bookstore does, via per-table dirty-key
// tracking) has its steady-state checkpoints taken as delta layers —
// only the rows dirtied since the previous checkpoint — chained onto the
// last full base image, LSM-style. The durable layout is a versioned
// base snapshot (ckpt.base.<seq>), delta layers (ckpt.delta.<seq>.<k>)
// and a manifest (the meta snapshot) naming the chain; the manifest
// write is the atomic commit point, so a crash anywhere — mid-delta,
// mid-compaction, between layer and manifest — leaves a consistent
// (base, chain) prefix, never a torn chain. The chain folds back into a
// fresh base when it exceeds core.Config.MaxDeltaChain layers or
// MaxChainFraction of the base size, and a PartitionDrop (shard
// rebalance) forces the fold so dropped rows cannot resurrect from a
// stale layer. Recovery restores base + chain; the remote-snapshot
// fallback streams only the layers a catching-up peer is missing.
// Steady-state checkpoint writes shrink from O(state) to O(recent
// writes) — ~140× under the standard load — freeing disk bandwidth for
// the WAL group-commit pipeline; machines without the capability (and
// core.Config.FullCheckpoints) keep the paper's monolithic path,
// bit for bit. cmd/experiment -run checkpoint sweeps the checkpoint
// interval comparing both modes (the Figure 6 trade-off), and
// BenchmarkCheckpointRecovery writes BENCH_checkpoint.json with the
// recovery/throughput/checkpoint-I/O trajectory.
//
// The ordering pipeline itself is batched, coalesced and pipelined:
// consensus proposals stream into consecutive instance slots up to
// paxos.Config.MaxInFlight deep — a uniform backpressure bound no
// proposal path can overshoot — while acceptor WAL records coalesce into
// shared group commits: the engine's one WAL path pays one flush for
// every record pending behind the in-flight sync. The invariants hold at
// every depth: the learner delivers in instance order, and every
// promise/accept is durable before its reply leaves the node
// (WAL-before-ack). Above the engine, a rockyardkv-style write-admission
// controller grades the local command backlog (slowdown/stop thresholds
// with hysteresis, paxos.AdmissionConfig) and the web tier paces or holds
// writes at the tier boundary (core.Replica.AdmissionHint), so overload
// degrades to queueing latency instead of retry-timeout storms. On the same simulated
// disk this moves one group from ~3.9k to ~45k+ committed actions/s
// (BenchmarkBatching writes BENCH_batching.json: actions/s across
// MaxInFlight at 1 and 4 shards; cmd/experiment -run batching prints the
// matrix).
//
// The read path scales out independently of the write quorums:
// webtier.Config.Readers boots learner-backed read-only servers per
// group — full application servers whose paxos engine is a non-voting
// learner (paxos.Config.Learner): it receives the voters' learn stream
// and checkpoints and applies the ordered log, but never votes, proposes
// or counts toward quorum, so added readers cost no WAL-quorum latency.
// Bounded staleness and read-your-writes ride on the applied index:
// every write ack carries its commit index, the proxy folds it into a
// per-session high-water mark and attaches it as a fence on the
// session's subsequent reads, and the serving replica runs a fenced read
// only once lastApplied reaches the fence (core.Replica.ReadAt — bounded
// wait, then a TooStale reply the proxy transparently re-serves on the
// voters; core.Replica.InspectAt pins point-in-time audit reads to a log
// index). Read dispatch balances per-request across voters + readers by
// least outstanding requests (rotation breaks ties) instead of pinning
// by client hash, so a hot client's reads spread over the read-serving
// set and queues drain toward the nodes with headroom; writes keep hash
// affinity and go to voters only. The fence engages at every Readers
// setting — with Readers=0 the read-serving set is the group's voters,
// so a session's fenced reads spread across voting non-leader replicas
// (and keep read-your-writes on whichever trailing voter they land)
// instead of pinning to the client hash. The learner fault family — lagging
// learner (flaky links), learner severed from its group while still
// serving (OpGroupIsolate, the staleness worst case), a leader crash
// racing in-flight fences — joins the faultload DSL, staleness is
// accounted per group (GroupReport.ReadsServed/FenceWaits/StaleServes)
// with a serve-time fence-violation counter the fault suite asserts
// stays zero, and cmd/experiment -run readscale plus BenchmarkReadScale
// (BENCH_readscale.json) measure read actions/s against read-serving
// node count — ≥2× from 3 voters to 3 voters + 3 learners under the
// Browsing mix.
//
// The single-shard invariant is lifted: one logical action can span
// Paxos groups atomically, via two-phase commit whose every protocol
// step is an ordered log record (core/txn.go). A participant group
// orders a core.TxnPrepare carrying its branch — applying it validates
// against local state (core.TxnStager), stages the action without
// executing it, and blocks the branch's conflict keys
// (core.Replica.TxnBlocks) so the tier boundary holds conflicting
// writes until the outcome's log position decides what the branch
// observes. The coordinator Paxos-commits a core.TxnDecision in its own
// home group BEFORE replying or releasing the outcome; the record is
// first-writer-wins, so a presumed-abort inquiry racing the real commit
// resolves to whichever ordered first and every reader agrees.
// Participants then order core.TxnCommit/TxnAbort — commit executes the
// staged branch at the outcome record's position, abort discards it,
// and either way duplicates degrade to ordered no-ops. All of it is
// replayable and checkpoint-carried (the prepared set, terminal set and
// decision map travel with the application snapshot), recovery is
// record-driven, never memory-driven: a stranded participant inquires
// at the home group after a grace (recording a presumed abort if no
// decision exists), a restarting replica re-arms a resolution loop for
// every staged branch at prepare-apply time (core.Config.OnTxnStaged —
// readiness rescans alone miss a prepare that replays late), and
// shard.Store.ResolveStranded drains abandoned branches on the blocking
// API, whose shard.Store.ExecuteTxn is the goroutine-facing coordinator
// the livenet -race audit hammers. The web tier drives the same records
// event-style (webtier/txn.go) behind the first real multi-shard
// workloads — cross-session gift orders debiting one group and
// delivering on another, admin inventory sweeps repricing item sets
// across groups — while a transaction that collapses to one group takes
// the plain submit path, bit-identical to the pre-transaction tier
// (equivalence-tested, like Shards=1 and Readers=0). The two
// coordinators stay separate on purpose: the web tier's speaks its own
// simulated messages, each with its own wire size, while
// shard.Store.ExecuteTxn blocks as goroutine callers want, so a shared
// one would only add locking and transport plumbing. The txn fault
// scenarios (coordinator crash, coordinator–participant partition,
// participant crash holding a prepared branch) run under cmd/experiment
// -run txn with per-group commit/abort/blocked-time counters
// (GroupReport.TxnCommits/TxnAborts/TxnBlockedSec) and an
// exactly-once audit asserting nothing is lost, duplicated or
// half-applied; BenchmarkTxn writes BENCH_txn.json.
//
// The dependability benchmark covers the sharded deployment too: a
// composable faultload DSL (exp.Faultload — victim selectors × schedule)
// subsumes the paper's §5.4–5.6 faultloads and adds sharded scenarios
// (one member of every group, rolling crashes, whole-group outage until
// manual recovery), with per-group + aggregate availability,
// performability and recovery-window reports (RunResult.PerGroup,
// cmd/experiment -run sharded, BenchmarkShardedRecovery).
//
// Faultloads reach beyond crashes — the paper's "other fault types"
// future work: OpPartition/OpHeal schedule network partitions (symmetric
// or asymmetric one-way loss, victims chosen by the selectors plus the
// late-bound Leader(group) and quorum-preserving Minority(group)), and
// OpDiskSlow/OpDiskRestore degrade a victim's disk live by a factor (the
// failing-disk straggler that drags group commit and checkpoints without
// tripping crash detection). Partitions are handle-based and composable
// on both runtimes — the simulator refcounts directed link blocks, and
// livenet gained an equivalent message-filter layer, so the same
// scenarios run on real goroutines — and active partition sets persist:
// a node added mid-partition (live rebalance) joins the majority side
// instead of straddling the split. The standard scenarios — leader
// isolation, minority split, whole-group isolation (the proxy↔group path
// severed), asymmetric one-way loss, slow-disk straggler — report
// partition/degradation windows beside the recovery windows
// (metrics.FaultWindow, GroupReport.PartitionSec/DegradedSec;
// cmd/experiment -run partition | slowdisk), and
// BenchmarkPartitionRecovery writes BENCH_partition.json with
// detection/failover and post-heal reabsorption times. Between the severed
// and the healthy link sits the flaky one: OpLinkLoss/OpLinkRestore (the
// FlakyLink scenario) schedule probabilistic per-link message loss over
// sim.SetLinkLoss / livenet.SetLinkLoss — the gray network failure that
// never trips partition detection — reported as linkloss windows
// (GroupReport.LossSec).
//
// The gray-failure family completes the spectrum: OpGrayFail/OpGrayRestore
// put a victim into the probe-healthy, work-sick mode — it keeps acking
// liveness pings and web-tier probes while real requests error (Factor
// < 1, an error rate) or slow-walk (Factor ≥ 1, a service-time
// multiplier); on livenet the same op drops value-bearing inbound
// traffic at the transport while sub-128-byte control messages pass.
// OpLinkDelay/OpLinkDelayRestore inflate per-link latency (sim.
// SetLinkDelay / livenet.SetLinkDelay) — the congested path where
// nothing drops and nothing severs, invisible to both loss and partition
// detection. The Flap generator expands any window-opening op into
// alternating inject/restore trains (period × duty), giving the classic
// route-flap scenario in one line. Because probe-timeout detection is
// blind to all of these, the proxy additionally grades each server on
// served-traffic quality — per-server error/latency EWMAs — and evicts
// (with quarantine) on quality alone; a gray member costs a few seconds
// of degraded service instead of a whole window (ProxyStats.
// QualityEvictions; the gray scenarios run under cmd/experiment -run
// gray, with grayfail/linkdelay windows in GroupReport.GraySec/DelaySec
// and staleness folded into per-group accuracy by
// metrics.WeightedGroupAccuracy).
//
// On top of the DSL sits a generative adversarial fault search
// (internal/exp/search, cmd/experiment -run hunt): it samples random
// schedules from the grammar — weighted op mix, random selectors, times
// and factors, severing windows kept quorum-safe by construction —
// judges every run with failure oracles (fence violations, an
// availability floor, a write-wedge oracle that demands throughput
// re-sustain half the failure-free baseline after the last fault
// clears, and a transaction-atomicity oracle — on sharded deployments
// the hunt drives cross-shard transactions beside the RBE load by
// default and fails any run that loses, duplicates or half-applies
// one; the sampler also draws compound 2PC-targeted schedules that
// anchor correlated coordinator/participant crashes and partitions
// inside one prepare→commit window), delta-debugs each failure to a
// minimal event set and time
// window (search.Shrink), and pins survivors as reproducible JSON
// counterexamples under internal/exp/testdata/pinned/ — auto-replayed by
// a regression test, so every bug the search ever caught stays caught.
// The harness is itself acceptance-tested against a known-bad engine:
// reverting the stale-leader-rejoin fix behind paxos.BugStaleLeaderRejoin
// makes the hunt find the resulting write-wedge, shrink the schedule to
// the causal leader partition/heal pair, and pin a case that reproduces
// the wedge pre-fix and passes post-fix. CI runs a -short smoke per PR
// and a full scheduled hunt nightly, uploading found schedules as
// artifacts.
//
// The codebase enforces its own invariants statically: internal/analysis
// is a stdlib-only go/analysis-style suite run by cmd/analyze (standalone
// over ./... or as a go vet -vettool), wired into CI. Four passes guard
// the bug classes this repo actually shipped: detorder flags map
// iteration that reaches an order-sensitive sink (message sends,
// proposals, WAL appends, fold-order-dependent results) inside the
// deterministic packages — the exact shape of the leader-election
// replay-divergence bug — with internal/detsort.Keys as the sanctioned
// collect-and-sort idiom; walltime forbids wall-clock time and global
// math/rand there (virtual clocks and seeded internal/xrand streams
// only); walpath confines env.Storage.Append/AppendBatch to the
// group-commit walWriter in paxos/wal.go, the engine's only WAL flush
// path, and proves every storage
// implementation completes its done callback on all control-flow paths;
// guarded checks `// guarded by <mu>` field annotations against the locks
// actually taken. Deliberate exceptions are annotated in place —
// //detorder:sorted, //walltime:live, //walpath:direct, //walpath:drops,
// //guarded:held — each with a reason, so the suite stays at zero
// findings and every suppression is a documented decision.
//
// The root package holds only the benchmark harness (bench_test.go);
// the implementation lives under internal/.
package robuststore
