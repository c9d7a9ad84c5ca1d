package exp

import (
	"fmt"
	"io"
	"time"

	"robuststore/internal/paxos"
	"robuststore/internal/shard"
)

// This file is the WAL group-commit experiment behind ROADMAP item 2: on
// the same simulated disk, how far do a wider group-commit batch and a
// deeper consensus pipeline (MaxInFlight) move one group's ordered
// throughput, and does the gain survive sharding? The baseline row is
// shard.MeasureThroughput's reference pipeline (batch 8, 4 in flight) —
// the pre-group-commit engine shape — so the speedup column reads
// directly as "× over the old engine".

// BatchingConfig parameterizes the batching matrix.
type BatchingConfig struct {
	// Shards lists the deployments swept. Default {1, 4}.
	Shards []int

	// OfferedPerShard is the offered load per group in actions/second,
	// high enough to saturate one pipeline. Default 50000.
	OfferedPerShard int

	// Warmup and Measure are per-cell simulation intervals. Defaults
	// 2 s and 5 s.
	Warmup  time.Duration
	Measure time.Duration

	// Seed fixes every cell's simulation.
	Seed uint64
}

func (c BatchingConfig) withDefaults() BatchingConfig {
	if c.Shards == nil {
		c.Shards = []int{1, 4}
	}
	if c.OfferedPerShard == 0 {
		c.OfferedPerShard = 50000
	}
	if c.Warmup == 0 {
		c.Warmup = 2 * time.Second
	}
	if c.Measure == 0 {
		c.Measure = 5 * time.Second
	}
	return c
}

// BatchingPoint is one cell of the MaxInFlight matrix.
type BatchingPoint struct {
	Shards      int
	MaxInFlight int // consensus pipeline depth
	MaxBatch    int // commands per proposed value
	Offered     int // aggregate offered actions/second
	PerSec      float64
	Baseline    bool    // the reference pipeline
	Speedup     float64 // PerSec over the same-shard baseline
}

// BatchingResult is the data behind BENCH_batching.json.
type BatchingResult struct {
	Points []BatchingPoint
}

// Batching runs the matrix: for each shard count, the reference-pipeline
// baseline, then MaxInFlight {4, 32} with the wider group-commit batch.
func Batching(cfg BatchingConfig) BatchingResult {
	cfg = cfg.withDefaults()
	var out BatchingResult
	measure := func(shards int, p paxos.Config) BatchingPoint {
		r := shard.MeasureThroughput(shard.ThroughputConfig{
			Shards:  shards,
			Offered: cfg.OfferedPerShard * shards,
			Warmup:  cfg.Warmup,
			Measure: cfg.Measure,
			Seed:    cfg.Seed,
			Paxos:   p,
		})
		return BatchingPoint{
			Shards:      shards,
			MaxInFlight: r.Pipeline.MaxInFlight,
			MaxBatch:    r.Pipeline.MaxBatchCmds,
			Offered:     r.Offered,
			PerSec:      r.PerSec,
		}
	}
	for _, shards := range cfg.Shards {
		base := measure(shards, paxos.Config{})
		base.Baseline, base.Speedup = true, 1
		out.Points = append(out.Points, base)
		for _, inflight := range []int{4, 32} {
			pt := measure(shards, paxos.Config{
				BatchDelay:   time.Millisecond,
				MaxBatchCmds: 64,
				MaxInFlight:  inflight,
			})
			if base.PerSec > 0 {
				pt.Speedup = pt.PerSec / base.PerSec
			}
			out.Points = append(out.Points, pt)
		}
	}
	return out
}

// SingleGroupSpeedup returns the best non-baseline single-group speedup in
// the result — the acceptance number for the group-commit work.
func (r BatchingResult) SingleGroupSpeedup() float64 {
	best := 0.0
	for _, pt := range r.Points {
		if pt.Shards == 1 && !pt.Baseline && pt.Speedup > best {
			best = pt.Speedup
		}
	}
	return best
}

// PrintBatching renders the matrix grouped by shard count.
func PrintBatching(w io.Writer, r BatchingResult) {
	fmt.Fprintln(w, "Batching — committed actions/s vs MaxInFlight")
	fmt.Fprintf(w, "%-8s%-12s%10s%8s%12s%12s%10s\n",
		"shards", "pipeline", "inflight", "batch", "offered/s", "actions/s", "speedup")
	for _, pt := range r.Points {
		name := "batch"
		if pt.Baseline {
			name = "base"
		}
		fmt.Fprintf(w, "%-8d%-12s%10d%8d%12d%12.0f%10.2f\n",
			pt.Shards, name, pt.MaxInFlight, pt.MaxBatch, pt.Offered, pt.PerSec, pt.Speedup)
	}
	fmt.Fprintf(w, "best single-group speedup vs pre-group-commit engine: %.2f×\n",
		r.SingleGroupSpeedup())
}
