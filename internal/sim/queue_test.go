package sim

import (
	"sort"
	"testing"
	"time"

	"robuststore/internal/env"
	"robuststore/internal/xrand"
)

// TestEventQueueFiresInAtSeqOrder interleaves scheduling (from outside the
// loop and from inside callbacks) with RunFor and RunUntilIdle calls over
// a coarse time grid, so many events share a timestamp. Every event must
// fire exactly once, with Now at its timestamp, and the firing sequence
// must equal the scheduled events sorted by (at, seq).
func TestEventQueueFiresInAtSeqOrder(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		s := New(Config{Seed: seed})
		rng := xrand.New(seed)
		var scheduled, fired []*event
		var add func(depth int)
		add = func(depth int) {
			var e *event
			e = s.schedule(s.Now().Add(time.Duration(rng.Intn(4))*time.Millisecond), func() {
				if got := s.Now().UnixNano(); got != e.at {
					t.Fatalf("seed %d: event %d ran at %d, scheduled for %d", seed, e.seq, got, e.at)
				}
				fired = append(fired, e)
				if depth < 2 && rng.Intn(3) == 0 {
					add(depth + 1)
				}
			})
			scheduled = append(scheduled, e)
		}
		for round := 0; round < 400; round++ {
			for n := rng.Intn(6); n > 0; n-- {
				add(0)
			}
			if rng.Intn(2) == 0 {
				s.RunFor(time.Duration(rng.Intn(3)) * time.Millisecond)
			} else {
				s.RunUntilIdle(rng.Intn(8))
			}
		}
		if !s.RunUntilIdle(1 << 20) {
			t.Fatalf("seed %d: queue did not drain", seed)
		}
		want := append([]*event(nil), scheduled...)
		sort.Slice(want, func(i, j int) bool { return want[i].before(want[j]) })
		if len(fired) != len(want) {
			t.Fatalf("seed %d: %d events fired, %d scheduled", seed, len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("seed %d: firing %d was (%d,%d), want (%d,%d)",
					seed, i, fired[i].at, fired[i].seq, want[i].at, want[i].seq)
			}
		}
	}
}

// TestTimerStopContract pins env.Timer.Stop on the event queue: it
// reports true only when it prevented the callback, and a stopped event
// is skipped without advancing Now.
func TestTimerStopContract(t *testing.T) {
	s, a, _ := twoNodes(t, Config{Seed: 21})
	e := a.n.e

	var tm env.Timer
	stoppedInside := true
	tm = e.After(5*time.Millisecond, func() { stoppedInside = tm.Stop() })
	s.RunFor(10 * time.Millisecond)
	if stoppedInside {
		t.Fatal("Stop inside the timer's own callback reported true")
	}
	if tm.Stop() {
		t.Fatal("Stop after the timer fired reported true")
	}

	start := s.Now()
	fired := false
	tm = e.After(5*time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop before the timer fired reported false")
	}
	if !s.RunUntilIdle(10) {
		t.Fatal("queue did not drain")
	}
	if fired {
		t.Fatal("stopped timer fired")
	}
	if !s.Now().Equal(start) {
		t.Fatalf("skipping a stopped event moved Now by %v", s.Now().Sub(start))
	}
}

var queueSink int

// BenchmarkEventQueue measures one schedule plus one fired event against a
// steady backlog of 1024 pending events.
func BenchmarkEventQueue(b *testing.B) {
	b.ReportAllocs()
	s := New(Config{Seed: 1})
	rng := xrand.New(1)
	fn := func() { queueSink++ }
	for i := 0; i < 1024; i++ {
		s.After(time.Duration(rng.Intn(1000))*time.Microsecond, fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(time.Duration(rng.Intn(1000))*time.Microsecond, fn)
		s.RunUntilIdle(1)
	}
}
