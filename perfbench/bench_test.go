package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// These tests run a tiny configuration of each workload, the traced and
// untraced paths both, so `go test -race` covers the generator, the
// tracing wrappers and the correctness gates.

func failures(t *testing.T, rep *report) {
	t.Helper()
	for _, f := range rep.failures {
		t.Error(f)
	}
}

func TestShoppingCrashTiny(t *testing.T) {
	sp := shopSpec{
		servers: 3, browsers: 30, stateEBs: 1,
		rampUp: 5 * time.Second, measure: 60 * time.Second, rampDown: 5 * time.Second,
		crashAt: 20 * time.Second,
	}
	proto := sp.population(1)
	un := runShopPass(sp, proto, 1, false)
	tr := runShopPass(sp, proto, 1, true)
	if un.fingerprint() != tr.fingerprint() {
		t.Fatalf("traced pass diverged:\n%s\n%s", un.fingerprint(), tr.fingerprint())
	}
	rep := newReport()
	shopGates(un, rep)
	failures(t, rep)
	if tr.trace.readyAt.IsZero() || len(tr.capture) == 0 {
		t.Errorf("traced pass missed the restart: ready %v, %d reads captured", tr.trace.readyAt, len(tr.capture))
	}
}

func TestWriteRampTiny(t *testing.T) {
	sp := rampSpec{warmup: 2 * time.Second, window: time.Second, drain: 2 * time.Second, sessions: 20}
	proto := smallPopulation(1)
	un := simRung(sp, proto, 400, 3, 1, nil, nil)
	tracer := newTracer(false)
	probe := &rampProbe{leader: -1}
	tr := simRung(sp, proto, 400, 3, 1, tracer, probe.sample)
	if un.String() != tr.String() {
		t.Fatalf("traced rung diverged:\n%s\n%s", un, tr)
	}
	rep := newReport()
	gateRung(un, rep)
	failures(t, rep)
	if un.Failed != 0 || un.Applied == 0 || tracer.events() == 0 || tracer.flushes.Load() == 0 ||
		tracer.submitUs.pct(50) <= 0 || probe.leader < 0 {
		t.Errorf("rung %s: %d events, %d flushes, submit p50 %v us, leader %d",
			un, tracer.events(), tracer.flushes.Load(), tracer.submitUs.pct(50), probe.leader)
	}
}

func TestLiveMixedTiny(t *testing.T) {
	sp := liveMixed
	sp.warmup, sp.window, sp.sessions = time.Second, time.Second, 20
	proto := smallPopulation(1)
	tracer := newTracer(true)
	o := liveRung(sp, proto, 200, 1, tracer)
	rep := newReport()
	gateRung(o.rung, rep)
	gateReads(o, rep)
	failures(t, rep)
	if o.Failed != 0 || o.Checked == 0 || tracer.sendUs.pct(50) <= 0 || tracer.submitUs.pct(50) <= 0 {
		t.Errorf("rung %s: %d fenced reads checked, send p50 %v us, submit p50 %v us",
			o.rung, o.Checked, tracer.sendUs.pct(50), tracer.submitUs.pct(50))
	}
}

func TestLedgerCountsEachOperationOnce(t *testing.T) {
	plan := []planned{
		{due: 0}, {due: time.Millisecond}, {due: 2 * time.Millisecond, read: true}, {due: 2 * time.Second},
	}
	sp := rampSpec{window: time.Second, sloMs: 50}
	l := newLedger(plan, 0, sp.window)
	l.finish(0, opCompleted, time.Millisecond)
	l.finish(0, opFailed, time.Millisecond) // a duplicate
	l.finish(2, opCompleted, time.Millisecond)
	l.finish(3, opCompleted, time.Millisecond) // outside the window
	// Operation 1 is never answered.
	r, reads := finishRung(sp, 1000, plan, l)
	if r.Issued != 3 || r.Completed != 2 || r.Failed != 1 || r.Answered != 3 || r.AnsweredOK != 2 ||
		r.Dups != 1 || r.Lost != 1 || r.Applied != 2 || reads.issued != 1 || r.MeetsSLO {
		t.Errorf("rung %s, reads %+v", r, reads)
	}
	rep := newReport()
	gateRung(r, rep)
	if len(rep.failures) != 2 {
		t.Errorf("want the duplicate and the lost operation to fail the rung, got %q", rep.failures)
	}
}

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json's metric lists in
// step with what the runs report.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want [][2]string) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the runs report %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m[0] || got[i].Unit != m[1] {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s, the runs report %s %s",
					kind, i, got[i].Name, got[i].Unit, m[0], m[1])
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
