package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"robuststore/internal/core"
	"robuststore/internal/paxos"
	"robuststore/internal/rbe"
	"robuststore/internal/tpcw"
	"robuststore/internal/xrand"
)

// This file holds what the two open-loop workloads (write-ramp and
// live-mixed) share: the seeded operation plan, client sessions that turn
// planned operations into bookstore actions, and per-operation
// exactly-once accounting.

// actionEpoch stamps the actions' Now fields: the plan's due offsets from
// a fixed origin, so action contents depend on the seed alone.
var actionEpoch = time.Date(2009, 6, 29, 0, 0, 0, 0, time.UTC)

// planned is one operation of a rung's plan.
type planned struct {
	due     time.Duration // offset from the rung's start
	session int32
	read    bool
	buy     bool // purchase the session's cart, if it has one
	item    tpcw.ItemID
	qty     int32
}

// The write mix is the TPC-W Shopping profile's (internal/rbe, the mix
// tpcw-shopping-crash runs) restricted to the two write kinds the
// open-loop workloads issue: Shopping Cart 11.60 % and Buy Confirm 1.20 %
// of interactions, so about one write in eleven is a purchase.
const (
	cartWeight = 1160
	buyWeight  = 120
)

// readsPerWrite is the Shopping profile's ratio of read interactions to
// write interactions (about 4.4), the fenced reads live-mixed issues per
// write.
var readsPerWrite = (1 - rbe.Shopping.WriteFraction()) / rbe.Shopping.WriteFraction()

// planRung lays out a rung of writes at rate per second for dur, evenly
// spaced. When reads is set, fenced reads follow each write, spread
// evenly up to the next one, readsPerWrite of them on average.
func planRung(rng *xrand.Rand, rate int, dur time.Duration, sessions, items int, reads bool) []planned {
	n := int(int64(rate) * int64(dur) / int64(time.Second))
	step := time.Second / time.Duration(rate)
	capacity := n
	if reads {
		capacity += int(float64(n)*readsPerWrite) + 1
	}
	out := make([]planned, 0, capacity)
	var owed float64 // reads due but not yet laid out
	for i := 0; i < n; i++ {
		due := time.Duration(i) * step
		p := planned{
			due:     due,
			session: int32(rng.Intn(sessions)),
			buy:     rng.Intn(cartWeight+buyWeight) < buyWeight,
			item:    tpcw.ItemID(rng.Intn(items) + 1),
			qty:     int32(rng.Intn(3) + 1),
		}
		out = append(out, p)
		if !reads {
			continue
		}
		owed += readsPerWrite
		k := int(owed)
		owed -= float64(k)
		for j := 1; j <= k; j++ {
			out = append(out, planned{
				due:     due + step*time.Duration(j)/time.Duration(k+1),
				session: int32(rng.Intn(sessions)),
				read:    true,
			})
		}
	}
	return out
}

// evidence is what a session's last acknowledged write left in the store.
type evidence struct {
	cart  tpcw.CartID // the cart holds item with at least qty...
	item  tpcw.ItemID
	qty   int32
	order tpcw.OrderID // ...or the order exists
}

// session is one client: its customer, its open cart and its last
// acknowledged write. On the live runtime acknowledgements arrive on
// replica executors while the generator reads, hence the lock.
type session struct {
	mu       sync.Mutex
	customer tpcw.CustomerID
	cart     tpcw.CartID // acknowledged and not yet sent to purchase
	last     evidence
	fence    paxos.InstanceID
	consumed atomic.Int64 // highest cart ID sent to purchase
}

// sessionKeys returns the shard keys of n sessions, the web tier's
// session keys of clients 1..n.
func sessionKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = tpcw.SessionKey(int64(i + 1))
	}
	return keys
}

func newSessions(n, customers int, rng *xrand.Rand) []*session {
	out := make([]*session, n)
	for i := range out {
		out[i] = &session{customer: tpcw.CustomerID(rng.Intn(customers) + 1)}
	}
	return out
}

// writeAction turns a planned write into a bookstore action: a purchase
// of the session's acknowledged cart when the plan says so and there is
// one, otherwise an add to the session's cart (a new cart if it has none).
func (s *session) writeAction(p planned) any {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := actionEpoch.Add(p.due)
	if p.buy && s.cart != 0 {
		cart := s.cart
		s.cart = 0
		s.consumed.Store(int64(cart))
		return tpcw.BuyConfirmAction{
			Cart: cart, Customer: s.customer,
			CCType: "VISA", CCNum: "4111111111111111", CCName: "perfbench",
			CCExpire: now.AddDate(2, 0, 0), ShipType: "AIR",
			ShipDate: now.AddDate(0, 0, 3), Now: now,
		}
	}
	return tpcw.CartUpdateAction{Cart: s.cart, AddItem: p.item, AddQty: p.qty, RandomItem: p.item, Now: now}
}

// ack records an acknowledged write and reports whether the store
// executed it without an application error.
func (s *session) ack(p planned, result any, inst paxos.InstanceID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if inst > s.fence {
		s.fence = inst
	}
	switch r := result.(type) {
	case tpcw.CartResult:
		if r.Err != "" {
			return false
		}
		if s.cart == 0 && int64(r.Cart.ID) > s.consumed.Load() {
			s.cart = r.Cart.ID
		}
		s.last = evidence{cart: r.Cart.ID, item: p.item, qty: p.qty}
	case tpcw.BuyConfirmResult:
		if r.Err != "" {
			return false
		}
		s.last = evidence{order: r.Order}
	default:
		return false
	}
	return true
}

// readCheck captures the session's last acknowledged write and its fence
// for a read issued now.
func (s *session) readCheck() (evidence, paxos.InstanceID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last, s.fence
}

// verify reports whether a state at or past the session's fence shows the
// session's last acknowledged write, and whether there was one to check.
// A cart that was since sent to purchase may be gone.
func (s *session) verify(sm core.StateMachine, ev evidence) (ok, checked bool) {
	st := storeOf(sm)
	switch {
	case ev.order != 0:
		_, found := st.GetOrder(ev.order)
		return found, true
	case ev.cart != 0:
		c, found := st.GetCart(ev.cart)
		if !found {
			return int64(ev.cart) <= s.consumed.Load(), true
		}
		return cartHas(c, ev.item, ev.qty), true
	}
	return true, false
}

func cartHas(c tpcw.Cart, item tpcw.ItemID, qty int32) bool {
	for _, l := range c.Lines {
		if l.Item == item && l.Qty >= qty {
			return true
		}
	}
	return false
}

// opLedger accounts every planned operation exactly once: each ends
// completed (with a latency from its due time) or failed. Beside that
// partition it counts outcomes as they arrive, duplicates included, so
// the gates can check the partition against an independent count.
type opLedger struct {
	state []atomic.Int32 // 0 pending, 1 completed, 2 failed
	lat   []atomic.Int64 // ns from due time to completion
	dups  atomic.Int64   // completions reported for a finished operation
	done  atomic.Int64

	inWindow        []bool       // due in the measurement window
	windowAnswered  atomic.Int64 // outcomes reported for those, duplicates included
	windowCompleted atomic.Int64 // ...of which completions
}

const (
	opPending int32 = iota
	opCompleted
	opFailed
)

// newLedger accounts plan, whose measurement window is [from, to).
func newLedger(plan []planned, from, to time.Duration) *opLedger {
	l := &opLedger{
		state:    make([]atomic.Int32, len(plan)),
		lat:      make([]atomic.Int64, len(plan)),
		inWindow: make([]bool, len(plan)),
	}
	for i, p := range plan {
		l.inWindow[i] = p.due >= from && p.due < to
	}
	return l
}

// finish records operation i's outcome; a second outcome for the same
// operation is counted as a duplicate.
func (l *opLedger) finish(i int, outcome int32, latency time.Duration) {
	if l.inWindow[i] {
		l.windowAnswered.Add(1)
		if outcome == opCompleted {
			l.windowCompleted.Add(1)
		}
	}
	if !l.state[i].CompareAndSwap(opPending, outcome) {
		l.dups.Add(1)
		return
	}
	l.lat[i].Store(int64(latency))
	l.done.Add(1)
}

var inf = math.Inf(1)

// windowStats summarizes the operations of one kind due in a window:
// issued, completed and failed counts and latencies in ms, failed ones as
// +Inf so they miss every limit.
type windowStats struct {
	issued, completed, failed int64
	latMs                     []float64
}

func (l *opLedger) window(plan []planned, from, to time.Duration, read bool) windowStats {
	var w windowStats
	for i, p := range plan {
		if p.read != read || p.due < from || p.due >= to {
			continue
		}
		w.issued++
		switch l.state[i].Load() {
		case opCompleted:
			w.completed++
			w.latMs = append(w.latMs, float64(l.lat[i].Load())/1e6)
		default:
			w.failed++
			w.latMs = append(w.latMs, inf)
		}
	}
	return w
}

// backlogAt counts operations due in [from, to) that had not finished by
// time to.
func (l *opLedger) backlogAt(plan []planned, from, to time.Duration) int64 {
	var n int64
	for i, p := range plan {
		if p.due < from || p.due >= to {
			continue
		}
		if l.state[i].Load() != opCompleted || p.due+time.Duration(l.lat[i].Load()) > to {
			n++
		}
	}
	return n
}
