package tpcw

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"robuststore/internal/xrand"
)

// referenceRelated is the full-window scan the coBought index replaced:
// every window order containing id adds one per other line. The index
// must stay observably identical to it.
func referenceRelated(s *Store, id ItemID) [5]ItemID {
	counts := make(map[ItemID]int)
	for _, oid := range s.recentOrders {
		order, ok := s.orders[oid]
		if !ok {
			continue
		}
		has := false
		for _, l := range order.Lines {
			if l.Item == id {
				has = true
				break
			}
		}
		if !has {
			continue
		}
		for _, l := range order.Lines {
			if l.Item != id {
				counts[l.Item]++
			}
		}
	}
	var related [5]ItemID
	for slot := 0; slot < 5; slot++ {
		best := ItemID(0)
		bestN := 0
		for iid, n := range counts {
			if n > bestN || (n == bestN && n > 0 && iid < best) {
				best, bestN = iid, n
			}
		}
		if best == 0 {
			related[slot] = ItemID((int32(id)+int32(slot))%s.cat.itemCount + 1)
			continue
		}
		related[slot] = best
		delete(counts, best)
	}
	return related
}

// relatedDriver applies one random action stream to a store that keeps
// its coBought index across actions and to a twin that discards it before
// every action, so each twin Admin Confirm rebuilds it from the window.
type relatedDriver struct {
	t        *testing.T
	rng      *xrand.Rand
	at       time.Time
	s, twin  *Store
	adminRan int
}

func (d *relatedDriver) apply(action any) {
	d.t.Helper()
	var want [5]ItemID
	admin, isAdmin := action.(AdminUpdateAction)
	if isAdmin {
		want = referenceRelated(d.s, admin.Item)
	}
	got := d.s.Apply(action)
	d.twin.coBought = nil
	if twin := d.twin.Apply(action); !reflect.DeepEqual(got, twin) {
		d.t.Fatalf("%T: result %v, twin %v", action, got, twin)
	}
	if isAdmin {
		d.adminRan++
		if rel := d.s.items[admin.Item].Related; rel != want {
			d.t.Fatalf("admin update of item %d: related %v, window scan %v", admin.Item, rel, want)
		}
	}
}

// run applies n random actions: BuyConfirms of 1-3 item carts, gift
// deliveries whose lines repeat an item, and Admin Confirms, over a small
// item range so co-purchases overlap.
func (d *relatedDriver) run(n int) {
	d.t.Helper()
	item := func() ItemID { return ItemID(d.rng.Intn(40) + 1) }
	for i := 0; i < n; i++ {
		d.at = d.at.Add(time.Second)
		switch r := d.rng.Intn(10); {
		case r < 6:
			cart := d.s.Apply(CreateCartAction{Now: d.at}).(CreateCartResult).Cart
			if twin := d.twin.Apply(CreateCartAction{Now: d.at}).(CreateCartResult).Cart; twin != cart {
				d.t.Fatalf("cart IDs diverge: %d vs %d", cart, twin)
			}
			for k := d.rng.Intn(3); k >= 0; k-- {
				d.apply(CartUpdateAction{Cart: cart, AddItem: item(), AddQty: int32(d.rng.Intn(3) + 1), Now: d.at})
			}
			d.apply(BuyConfirmAction{
				Cart: cart, Customer: CustomerID(d.rng.Intn(100) + 1),
				ShipDate: d.at, Now: d.at,
			})
		case r < 8:
			a, b := item(), item()
			d.apply(GiftDeliverAction{
				Recipient: CustomerID(d.rng.Intn(100) + 1),
				Lines:     []OrderLine{{Item: a, Qty: 1}, {Item: b, Qty: 2}, {Item: a, Qty: 1}},
				SubTotal:  10, Tax: 1, Total: 11 + shippingCost(3),
				ShipDate: d.at, Now: d.at,
			})
		default:
			d.apply(AdminUpdateAction{Item: item(), Cost: 5 + d.rng.Float64()*50, Now: d.at})
		}
	}
}

// check compares both stores' state, asserts relatedFromOrders matches the
// window scan for every item, and that an incrementally maintained index
// equals one rebuilt from scratch.
func (d *relatedDriver) check(context string) {
	d.t.Helper()
	storesEqual(d.t, context, d.s, d.twin)
	if d.s.coBought != nil {
		kept := d.s.coBought
		d.s.rebuildCoBought()
		if !reflect.DeepEqual(kept, d.s.coBought) {
			d.t.Fatalf("%s: incrementally maintained index differs from a rebuild", context)
		}
		d.s.coBought = kept
	}
	for id := range d.s.items {
		if got, want := d.s.relatedFromOrders(id), referenceRelated(d.s, id); got != want {
			d.t.Fatalf("%s: related(%d) = %v, window scan %v", context, id, got, want)
		}
	}
}

// replace swaps both stores for derived copies (Clone, Restore, ...);
// the new s starts with no index, so the next Admin Confirm rebuilds it.
func (d *relatedDriver) replace(context string, derive func(*Store) *Store) {
	d.t.Helper()
	d.s, d.twin = derive(d.s), derive(d.twin)
	if d.s.coBought != nil {
		d.t.Fatalf("%s: derived store carries an index", context)
	}
	d.check(context)
}

func TestRelatedIndexMatchesScan(t *testing.T) {
	for seed := uint64(1); seed <= 2; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			d := &relatedDriver{t: t, rng: xrand.New(seed), at: now(), s: testStore(), twin: testStore()}
			d.run(300)
			d.check("warm-up")

			// Past the window: evictions run against the maintained index.
			d.run(bestSellerWindow + 500)
			if len(d.s.recentOrders) != bestSellerWindow {
				t.Fatalf("window holds %d orders, want %d", len(d.s.recentOrders), bestSellerWindow)
			}
			d.check("after eviction")

			d.replace("clone", (*Store).Clone)
			d.run(300)
			d.check("after clone")

			var bases []any
			d.replace("restore", func(s *Store) *Store {
				snap, _ := s.Snapshot()
				bases = append(bases, snap)
				out := testStore()
				out.Restore(snap)
				return out
			})
			d.run(300)
			d.check("after restore")

			var deltas []any
			for _, st := range []*Store{d.s, d.twin} {
				delta, _, ok := st.SnapshotDelta()
				if !ok {
					t.Fatal("no delta after a full snapshot")
				}
				deltas = append(deltas, delta)
			}
			k := 0
			d.replace("apply delta", func(*Store) *Store {
				out := testStore()
				out.Restore(bases[k])
				out.ApplyDelta(deltas[k])
				k++
				return out
			})
			d.run(300)
			d.check("after delta")

			// Drop half the customers' orders, some inside the window.
			moved, _ := d.s.ExportOwned(ownedByParity)
			inWindow := 0
			for _, oid := range d.s.recentOrders {
				if moved.(PartitionSnap).Orders[oid] != nil {
					inWindow++
				}
			}
			if inWindow == 0 {
				t.Fatal("drop removes no window order")
			}
			drop := func(context string) {
				for _, st := range []*Store{d.s, d.twin} {
					st.DropOwned(ownedByParity)
				}
				d.check(context)
			}
			drop("after drop")
			d.run(300)
			d.check("after drop and updates")

			// Re-import the dropped rows: their window orders count again.
			for _, st := range []*Store{d.s, d.twin} {
				st.ImportOwned(moved)
			}
			d.check("after import")
			d.run(300)
			d.check("after import and updates")

			// Drop again and run past a full window, so evictions meet
			// window IDs whose orders are gone.
			drop("after second drop")
			d.run(bestSellerWindow + 300)
			d.check("after drop and eviction")
			if d.adminRan < 500 {
				t.Fatalf("only %d admin updates ran", d.adminRan)
			}
		})
	}
}

func BenchmarkApplyAdminUpdate(b *testing.B) {
	b.ReportAllocs()
	s := Populate(PopConfig{Items: 10000, EBs: 30, Reduction: 8, Seed: 1})
	if len(s.recentOrders) != bestSellerWindow {
		b.Fatalf("window holds %d orders, want %d", len(s.recentOrders), bestSellerWindow)
	}
	// The first Admin Confirm builds the co-purchase index; keep it out
	// of the measurement.
	s.Apply(AdminUpdateAction{Item: 1, Cost: 10, Now: now()})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Apply(AdminUpdateAction{Item: ItemID(i%10000 + 1), Cost: 10, Now: now()})
	}
}
