// Command perfbench is RobustStore's end-to-end benchmark. It runs one of
// three named workloads, checks the program's outputs for correctness and
// prints one JSON result line:
//
//	perfbench --workload write-ramp --seed 1 --seconds 45 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it runs the workload untraced and then with every layer wrapped from
// outside (runtime, node, env, storage, state machine, frontend) and
// carries the per-layer metrics instead. README.md in this directory
// describes the workloads, their SLOs and ladders, and which end-to-end
// metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates one run's metrics and correctness gates.
type report struct {
	heap      *heapSampler
	metrics   map[string]metric
	failures  []string
	attempted int64
	failed    int64
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// gate records a correctness check; a false condition fails the run.
func (r *report) gate(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// config is the parsed command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// endToEnd lists the metrics every untraced run reports; traced runs
// report perLayer instead.
var endToEnd = [][2]string{
	{"setup_s", "s"}, {"heap_peak_mb", "MB"}, {"cost_s", "s"},
	{"rate_per_s", "1/s"}, {"p50_ms", "ms"}, {"p99_ms", "ms"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config, *report){
	"tpcw-shopping-crash": runShopping,
	"write-ramp":          runWriteRamp,
	"live-mixed":          runLiveMixed,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measurement budget in wall seconds")
	flag.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from a traced run")
	flag.Parse()
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {%s}, --trace 0|1 and --seconds > 0\n",
			strings.Join(names, ","))
		os.Exit(2)
	}

	rep := newReport()
	rep.heap = startHeapSampler()
	start := time.Now()
	run(cfg, rep)
	peak := rep.heap.stop()
	want := perLayer
	if !cfg.trace {
		if _, ok := rep.metrics["heap_peak_mb"]; !ok {
			rep.set("heap_peak_mb", peak/1e6, "MB")
		}
		want = endToEnd
	}
	rep.gate(len(rep.metrics) == len(want), "reported %d metrics, want %d", len(rep.metrics), len(want))
	for _, m := range want {
		got, ok := rep.metrics[m[0]]
		rep.gate(ok && got.Unit == m[1], "metric %s: got %+v, want unit %s", m[0], got, m[1])
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d trace %v done in %.1f s\n",
		cfg.workload, cfg.seed, cfg.trace, time.Since(start).Seconds())

	out := result{
		Correct:   len(rep.failures) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "perfbench: correctness gate failed:", f)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}
