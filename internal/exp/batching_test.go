package exp

import (
	"testing"
	"time"
)

// TestBatchingCommitsAtMostOffered: no cell of the short batching matrix
// (cmd/experiment -run batching -short) may report more committed
// actions/s than it offered, and none may read zero: the warm-up backlog
// must neither be counted inside the window nor starve it.
func TestBatchingCommitsAtMostOffered(t *testing.T) {
	r := Batching(BatchingConfig{
		Shards:  []int{1},
		Warmup:  time.Second,
		Measure: 2 * time.Second,
		Seed:    1,
	})
	if len(r.Points) == 0 {
		t.Fatal("no batching cells")
	}
	for _, pt := range r.Points {
		t.Logf("shards %d inflight %d batch %d: %.0f/s of %d offered",
			pt.Shards, pt.MaxInFlight, pt.MaxBatch, pt.PerSec, pt.Offered)
		if pt.PerSec <= 0 || pt.PerSec > float64(pt.Offered) {
			t.Errorf("shards %d inflight %d batch %d: %.1f committed/s, want in (0, %d]",
				pt.Shards, pt.MaxInFlight, pt.MaxBatch, pt.PerSec, pt.Offered)
		}
	}
}
