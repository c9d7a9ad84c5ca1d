package tpcw

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentCloneLeavesSourceUntouched: the harness clones one
// populated prototype per replica, possibly from several goroutines at
// once. Each clone must be a consistent, complete copy, and cloning must
// write nothing to the prototype — neither racing (run under -race) nor
// re-anchoring its delta tracking, so the prototype's next delta still
// carries the writes made before the clones.
func TestConcurrentCloneLeavesSourceUntouched(t *testing.T) {
	proto := Populate(PopConfig{Items: 200, EBs: 1, Reduction: 4, Seed: 5})
	proto.Snapshot() // anchor the delta chain
	for i := 0; i < 10; i++ {
		mutate(t, proto, i)
	}

	clones := make([]*Store, 4)
	var wg sync.WaitGroup
	for i := range clones {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clones[i] = proto.Clone()
		}(i)
	}
	wg.Wait()

	for i, c := range clones {
		if bad := c.VerifyConsistency(); len(bad) > 0 {
			t.Errorf("clone %d fails the consistency audit: %v", i, bad)
		}
		storesEqual(t, fmt.Sprintf("clone %d", i), proto, c)
	}
	data, _, ok := proto.SnapshotDelta()
	if !ok {
		t.Fatal("cloning dropped the prototype's delta anchor")
	}
	if d := data.(DeltaSnap); len(d.Customers) == 0 || len(d.Carts) == 0 {
		t.Fatalf("cloning re-anchored the prototype's delta: %d customers, %d carts dirty",
			len(d.Customers), len(d.Carts))
	}
}
