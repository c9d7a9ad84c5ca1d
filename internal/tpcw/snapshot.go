package tpcw

// This file implements checkpointing for the bookstore state machine:
// Snapshot deep-copies the mutable state (the immutable catalog — static
// items' indexes, authors, countries — is shared by reference), and
// Restore replaces the state wholesale. The snapshot size is the nominal
// state size, which is what the paper's recovery analysis depends on.

// storeSnap is the checkpoint payload. The pointer maps share their
// pointed-to values with the live store under the copy-on-write
// discipline documented on Store.
type storeSnap struct {
	Items        map[ItemID]*Item
	Customers    map[CustomerID]*Customer
	ByUName      map[string]CustomerID
	Addresses    map[AddressID]*Address
	Orders       map[OrderID]*Order
	Carts        map[CartID]Cart
	BsQty        map[ItemID]int64
	LastOrder    map[CustomerID]OrderID
	RecentOrders []OrderID
	NextAddress  AddressID
	NextCustomer CustomerID
	NextOrder    OrderID
	NextCart     CartID
	NominalBytes int64
	Catalog      *catalog // shared immutable reference
}

// Snapshot returns a deep copy of the mutable bookstore state and its
// nominal size, implementing core.StateMachine.
func (s *Store) Snapshot() (any, int64) {
	snap := s.state().clone()
	// A full snapshot anchors the incremental-checkpoint chain: the next
	// SnapshotDelta is relative to this state (see delta.go).
	s.resetDirty()
	return snap, s.nominalBytes
}

// Restore replaces the store state from a Snapshot payload, implementing
// core.StateMachine.
func (s *Store) Restore(data any) {
	if snap, ok := data.(storeSnap); ok {
		s.install(snap.clone())
	}
}

// state returns the store's mutable state by reference.
func (s *Store) state() storeSnap {
	return storeSnap{
		Items:        s.items,
		Customers:    s.customers,
		ByUName:      s.byUName,
		Addresses:    s.addresses,
		Orders:       s.orders,
		Carts:        s.carts,
		BsQty:        s.bsQty,
		LastOrder:    s.lastOrder,
		RecentOrders: s.recentOrders,
		NextAddress:  s.nextAddress,
		NextCustomer: s.nextCustomer,
		NextOrder:    s.nextOrder,
		NextCart:     s.nextCart,
		NominalBytes: s.nominalBytes,
		Catalog:      s.cat,
	}
}

// clone copies every map and slice of st (cart lines included); the rows
// they point to are shared copy-on-write. It only reads st.
func (st storeSnap) clone() storeSnap {
	out := st
	out.Items = make(map[ItemID]*Item, len(st.Items))
	for k, v := range st.Items {
		out.Items[k] = v
	}
	out.Customers = make(map[CustomerID]*Customer, len(st.Customers))
	for k, v := range st.Customers {
		out.Customers[k] = v
	}
	out.ByUName = make(map[string]CustomerID, len(st.ByUName))
	for k, v := range st.ByUName {
		out.ByUName[k] = v
	}
	out.Addresses = make(map[AddressID]*Address, len(st.Addresses))
	for k, v := range st.Addresses {
		out.Addresses[k] = v
	}
	out.Orders = make(map[OrderID]*Order, len(st.Orders))
	for k, v := range st.Orders {
		out.Orders[k] = v // orders are immutable after insertion
	}
	out.Carts = make(map[CartID]Cart, len(st.Carts))
	for k, v := range st.Carts {
		v.Lines = append([]CartLine(nil), v.Lines...)
		out.Carts[k] = v
	}
	out.BsQty = make(map[ItemID]int64, len(st.BsQty))
	for k, v := range st.BsQty {
		out.BsQty[k] = v
	}
	out.LastOrder = make(map[CustomerID]OrderID, len(st.LastOrder))
	for k, v := range st.LastOrder {
		out.LastOrder[k] = v
	}
	out.RecentOrders = append([]OrderID(nil), st.RecentOrders...)
	return out
}

// install makes st (which the caller hands over) the store's state.
func (s *Store) install(st storeSnap) {
	s.items = st.Items
	s.customers = st.Customers
	s.byUName = st.ByUName
	s.addresses = st.Addresses
	s.orders = st.Orders
	s.carts = st.Carts
	s.bsQty = st.BsQty
	s.lastOrder = st.LastOrder
	s.recentOrders = st.RecentOrders
	s.nextAddress = st.NextAddress
	s.nextCustomer = st.NextCustomer
	s.nextOrder = st.NextOrder
	s.nextCart = st.NextCart
	s.nominalBytes = st.NominalBytes
	if st.Catalog != nil {
		s.cat = st.Catalog
	}
	s.bsCache = nil
	s.bsBySubject = nil
	s.coBought = nil
	s.ordersSinceBS = 0
	// The installed state is snapshot-exact: re-anchor delta tracking.
	s.resetDirty()
}

// Execute implements core.StateMachine by dispatching to Apply.
func (s *Store) Execute(action any) any { return s.Apply(action) }

// Clone returns an independent deep copy of the store (sharing the
// immutable catalog). The experiment harness populates one prototype per
// state size and clones it for each replica. Clone copies the state once
// and writes nothing to s, so concurrent clones of one prototype are safe.
func (s *Store) Clone() *Store {
	out := &Store{}
	out.install(s.state().clone())
	return out
}
