package main

import (
	"runtime/metrics"
	"time"

	"robuststore/internal/rbe"
	"robuststore/internal/shard"
	"robuststore/internal/tpcw"
	"robuststore/internal/xrand"
)

// This file replays the workloads' own seeded streams against single
// layers from outside, one goroutine, timing each call and counting its
// heap allocations: tpcw apply per write kind, tpcw queries per read
// interaction (webtier.Server.performRead's call pattern), state
// clone/snapshot/delta, and routing-table lookups.

var writeKinds = []string{"cart_update", "buy_confirm"}

// readKinds are the read interactions that query the store; the two
// static form pages (search request, order inquiry) touch no state.
var readKinds = []rbe.Interaction{
	rbe.Home, rbe.NewProducts, rbe.BestSellers, rbe.ProductDetail,
	rbe.SearchResults, rbe.OrderDisplay, rbe.AdminRequest,
}

// callCost accumulates one kind's replayed calls.
type callCost struct {
	n      int
	ns     int64
	allocs uint64
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// timed runs fn once, adding its wall time and allocations to c.
func (c *callCost) timed(fn func()) {
	a0 := heapAllocs()
	t0 := time.Now()
	fn()
	c.ns += time.Since(t0).Nanoseconds()
	c.allocs += heapAllocs() - a0
	c.n++
}

func (c *callCost) report(rep *report, usName, allocName string) {
	if c.n == 0 {
		return
	}
	rep.set(usName, float64(c.ns)/1e3/float64(c.n), "us")
	rep.set(allocName, float64(c.allocs)/float64(c.n), "count")
}

// replayApply applies the reference rung's write stream, as the sessions
// of the workload would issue it with every write acknowledged at once,
// to a fresh copy of the workload's bookstore.
func replayApply(rep *report, proto *tpcw.Store, sp rampSpec, seed uint64) {
	st := proto.Clone()
	info := proto.Info()
	rng := xrand.New(seed*0x9e3779b97f4a7c15 + uint64(sp.refRate))
	sessions := newSessions(sp.sessions, info.Customers, rng)
	plan := planRung(rng, sp.refRate, sp.warmup+sp.window, sp.sessions, info.Items, false)
	costs := map[string]*callCost{}
	for _, k := range writeKinds {
		costs[k] = &callCost{}
	}
	for _, p := range plan {
		sess := sessions[p.session]
		act := sess.writeAction(p)
		var res any
		costs[actionKind(act)].timed(func() { res = st.Execute(act) })
		sess.ack(p, res, 0)
	}
	for _, k := range writeKinds {
		costs[k].report(rep, "tpcw.apply_us."+k, "tpcw.apply_allocs."+k)
	}
}

// replayQueries runs the captured read interactions against a copy of the
// population with the web tier's query pattern for each.
func replayQueries(rep *report, proto *tpcw.Store, reqs []rbe.Request) {
	st := proto.Clone()
	costs := map[rbe.Interaction]*callCost{}
	for _, k := range readKinds {
		costs[k] = &callCost{}
	}
	for _, req := range reqs {
		c := costs[req.Kind]
		if c == nil {
			continue
		}
		c.timed(func() { performRead(st, req) })
	}
	for _, k := range readKinds {
		costs[k].report(rep, "tpcw.query_us."+k.String(), "tpcw.query_allocs."+k.String())
	}
}

// performRead mirrors webtier.Server.performRead's store calls.
func performRead(st *tpcw.Store, req rbe.Request) {
	switch req.Kind {
	case rbe.Home:
		st.GetBook(req.Item)
		if rel, ok := st.GetRelated(req.Item); ok {
			for _, r := range rel {
				st.GetBook(r)
			}
		}
	case rbe.NewProducts:
		for _, id := range st.GetNewProducts(req.Subject) {
			st.GetBook(id)
		}
	case rbe.BestSellers:
		for _, bs := range st.GetBestSellers(req.Subject) {
			st.GetBook(bs.Item)
		}
	case rbe.ProductDetail:
		if item, ok := st.GetBook(req.Item); ok {
			st.GetAuthor(item.Author)
		}
	case rbe.SearchResults:
		for _, id := range st.DoSearch(req.SearchKind, req.SearchTerm) {
			st.GetBook(id)
		}
	case rbe.OrderDisplay:
		uname := req.UName
		if uname == "" {
			uname, _ = st.GetUserName(req.Customer)
		}
		st.GetMostRecentOrder(uname)
	case rbe.AdminRequest:
		st.GetBook(req.Item)
	}
}

// replayState times the state copies checkpointing and replica boot use
// on the workload's own population: a full clone, a full snapshot, and a
// delta snapshot after a thousand seeded writes. Each is the median of
// three.
func replayState(rep *report, proto *tpcw.Store, seed uint64) {
	var clone, snap, delta []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		st := proto.Clone()
		clone = append(clone, ms(time.Since(t0)))
		t0 = time.Now()
		st.Snapshot()
		snap = append(snap, ms(time.Since(t0)))

		info := proto.Info()
		rng := xrand.New(seed + uint64(i))
		sessions := newSessions(100, info.Customers, rng)
		for _, p := range planRung(rng, 1000, time.Second, 100, info.Items, false) {
			sess := sessions[p.session]
			sess.ack(p, st.Execute(sess.writeAction(p)), 0)
		}
		t0 = time.Now()
		st.SnapshotDelta()
		delta = append(delta, ms(time.Since(t0)))
	}
	rep.set("tpcw.clone_ms", median(clone), "ms")
	rep.set("tpcw.snapshot_ms", median(snap), "ms")
	rep.set("tpcw.snapshot_delta_ms", median(delta), "ms")
}

// replayRoute times routing-table lookups over the workload's session
// keys.
func replayRoute(rep *report, sessions int) {
	table := shard.NewRoutingTable(1)
	keys := sessionKeys(sessions)
	const rounds = 1000
	sink := 0
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, k := range keys {
			sink += table.Group(k)
		}
	}
	rep.set("shard.route_ns", float64(time.Since(t0).Nanoseconds())/float64(rounds*len(keys)), "ns")
	rep.gate(sink == 0, "a one-group table routed a key to group %d", sink)
}
