package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// pct returns the p-th percentile (0..100, nearest rank) of xs, sorting
// xs in place. Failed operations enter as +Inf so they miss every limit.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	rank := int(math.Ceil(p/100*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	return xs[rank]
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// repeatSetup runs setup n times and reports the median wall seconds,
// keeping the last product. Repeating makes setup_s a median rather than
// one sample of a noisy machine; a collection before each run keeps a
// run from paying for the garbage of the one before.
func repeatSetup[T any](n int, setup func() T) (T, float64) {
	var out T
	var secs []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		out = setup()
		secs = append(secs, time.Since(t0).Seconds())
	}
	return out, median(secs)
}

// heapSampler tracks the peak live heap (bytes marked live by the last
// garbage collection). The live heap, unlike the total heap, does not
// depend on when the collector happened to run.
type heapSampler struct {
	stopCh chan struct{}
	done   chan struct{}
	peak   atomic.Uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopCh: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.stopCh:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakBytes returns the peak so far.
func (h *heapSampler) peakBytes() float64 { return float64(h.peak.Load()) }

// stop ends sampling and returns the peak in bytes.
func (h *heapSampler) stop() float64 {
	close(h.stopCh)
	<-h.done
	return h.peakBytes()
}

// rtCounters is a snapshot of the Go runtime's cumulative counters.
type rtCounters struct {
	allocBytes float64
	gcCycles   float64
	gcCPU      float64
	totalCPU   float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtCounters {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		if v.Kind() == metrics.KindUint64 {
			return float64(v.Uint64())
		}
		return v.Float64()
	}
	return rtCounters{val(s[0].Value), val(s[1].Value), val(s[2].Value), val(s[3].Value)}
}

// setRuntime reports the runtime layer's work between two snapshots,
// per operation where it scales with operations.
func setRuntime(rep *report, a, b rtCounters, ops int64) {
	if ops < 1 {
		ops = 1
	}
	rep.set("runtime.alloc_kb_per_op", (b.allocBytes-a.allocBytes)/1e3/float64(ops), "KB")
	gcPct := 0.0
	if b.totalCPU > a.totalCPU {
		gcPct = 100 * (b.gcCPU - a.gcCPU) / (b.totalCPU - a.totalCPU)
	}
	rep.set("runtime.gc_cpu_pct", gcPct, "%")
	rep.set("runtime.gc_cycles", b.gcCycles-a.gcCycles, "count")
}

// hist is a concurrency-safe sample collector.
type hist struct {
	mu sync.Mutex
	xs []float64
}

func (h *hist) add(x float64) {
	h.mu.Lock()
	h.xs = append(h.xs, x)
	h.mu.Unlock()
}

func (h *hist) pct(p float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return pct(h.xs, p)
}

// processCPU returns the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
