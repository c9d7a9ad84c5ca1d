package tpcw

import (
	"fmt"
	"strconv"
	"time"
)

// This file defines the write actions of the bookstore — the deterministic
// transformations of the original SQL transactions (paper §4, task II).
// Every field that a centralized implementation would obtain from the
// clock or a random number generator is a parameter, filled in by the
// caller before the action is submitted for total ordering.

// CreateCartAction creates an empty shopping cart (TPC-W createEmptyCart).
type CreateCartAction struct {
	Now time.Time
}

// CartUpdateAction adds an item to a cart and/or updates line quantities
// (TPC-W addItem / refreshCart). Cart 0 creates a new cart first, making
// the shopping-cart interaction a single atomic action as in the original
// SQL transaction. If the cart would remain empty and RandomItem is set,
// that item is added — the "add random item if necessary" rule with the
// randomness resolved by the caller.
type CartUpdateAction struct {
	Cart       CartID
	AddItem    ItemID // 0 = none
	AddQty     int32
	SetLines   []CartLine // quantity updates; qty 0 removes the line
	RandomItem ItemID     // caller-chosen fallback item
	Now        time.Time
}

// CreateCustomerAction registers a new customer (TPC-W
// createNewCustomer). Discount is the caller-drawn random discount.
type CreateCustomerAction struct {
	FName     string
	LName     string
	Street1   string
	Street2   string
	City      string
	State     string
	Zip       string
	Country   CountryID
	Phone     string
	Email     string
	BirthDate time.Time
	Data      string
	Discount  float64
	Now       time.Time
}

// RefreshSessionAction updates a customer's login/expiration times (TPC-W
// refreshSession).
type RefreshSessionAction struct {
	Customer CustomerID
	Now      time.Time
}

// BuyConfirmAction turns a cart into an order (TPC-W doBuyConfirm): order
// plus order lines plus credit-card transaction, with the TPC-W stock
// rule (decrement; if the result drops below 10, restock by 21).
type BuyConfirmAction struct {
	Cart     CartID
	Customer CustomerID
	CCType   string
	CCNum    string
	CCName   string
	CCExpire time.Time
	ShipType string
	ShipDate time.Time // caller-computed: Now + random 1..7 days
	Comment  string
	Now      time.Time
}

// AdminUpdateAction is the admin confirm interaction (TPC-W adminUpdate):
// update an item's cost and images and recompute its related items from
// co-purchases in recent orders.
type AdminUpdateAction struct {
	Item      ItemID
	Cost      float64
	Image     string
	Thumbnail string
	Now       time.Time
}

// Results.

// CreateCartResult returns the new cart's identity.
type CreateCartResult struct {
	Cart CartID
}

// CreateCustomerResult returns the new customer row.
type CreateCustomerResult struct {
	Customer Customer
}

// BuyConfirmResult returns the new order's identity and totals.
type BuyConfirmResult struct {
	Order OrderID
	Total float64
	Err   string // non-empty when the cart or customer is unknown
}

// CartResult returns the cart after an update.
type CartResult struct {
	Cart Cart
	Err  string
}

// Apply executes one action deterministically and returns its result. It
// implements the Execute half of core.StateMachine for the bookstore.
func (s *Store) Apply(action any) any {
	switch a := action.(type) {
	case CreateCartAction:
		return s.applyCreateCart(a)
	case CartUpdateAction:
		return s.applyCartUpdate(a)
	case CreateCustomerAction:
		return s.applyCreateCustomer(a)
	case RefreshSessionAction:
		return s.applyRefreshSession(a)
	case BuyConfirmAction:
		return s.applyBuyConfirm(a)
	case AdminUpdateAction:
		return s.applyAdminUpdate(a)
	case GiftOrderAction:
		return s.applyGiftOrder(a)
	case GiftDebitAction:
		return s.applyGiftDebit(a)
	case GiftDeliverAction:
		return s.applyGiftDeliver(a)
	case InventorySweepAction:
		return s.applyInventorySweep(a)
	default:
		return fmt.Errorf("tpcw: unknown action %T", action)
	}
}

// ActionSize models the serialized size in bytes of an action, for
// network/disk accounting.
func ActionSize(action any) int64 {
	switch a := action.(type) {
	case CreateCartAction:
		return 48
	case CartUpdateAction:
		return 72 + int64(len(a.SetLines))*12
	case CreateCustomerAction:
		return 220
	case RefreshSessionAction:
		return 40
	case BuyConfirmAction:
		return 160
	case AdminUpdateAction:
		return 96
	case GiftOrderAction:
		return 120
	case GiftDebitAction:
		return 72
	case GiftDeliverAction:
		return 112 + int64(len(a.Lines))*24
	case InventorySweepAction:
		return 56 + int64(len(a.Items))*8
	default:
		return 64
	}
}

func (s *Store) applyCreateCart(a CreateCartAction) CreateCartResult {
	s.nextCart++
	id := s.nextCart
	s.carts[id] = Cart{ID: id, Time: a.Now}
	s.nominalBytes += nominalCart
	s.markCart(id)
	return CreateCartResult{Cart: id}
}

func (s *Store) applyCartUpdate(a CartUpdateAction) CartResult {
	cart, ok := s.carts[a.Cart]
	if !ok {
		// Cart 0 means "create"; a non-zero unknown cart (consumed by an
		// earlier purchase whose reply was lost, or expired) is
		// recreated when the interaction carries a fallback item, as
		// the TPC-W shopping-cart page does. Without a fallback the
		// caller gets an error.
		if a.Cart != 0 && a.AddItem == 0 && a.RandomItem == 0 {
			return CartResult{Err: "no such cart"}
		}
		s.nextCart++
		cart = Cart{ID: s.nextCart, Time: a.Now}
		s.nominalBytes += nominalCart
	}
	if a.AddItem != 0 {
		if _, ok := s.items[a.AddItem]; ok {
			qty := a.AddQty
			if qty <= 0 {
				qty = 1
			}
			cart = cartAdd(cart, a.AddItem, qty)
			s.nominalBytes += nominalCartLine
		}
	}
	for _, set := range a.SetLines {
		cart = cartSet(cart, set.Item, set.Qty)
	}
	if len(cart.Lines) == 0 && a.RandomItem != 0 {
		if _, ok := s.items[a.RandomItem]; ok {
			cart = cartAdd(cart, a.RandomItem, 1)
			s.nominalBytes += nominalCartLine
		}
	}
	cart.Time = a.Now
	s.carts[cart.ID] = cart
	s.markCart(cart.ID)
	return CartResult{Cart: cart}
}

func cartAdd(c Cart, item ItemID, qty int32) Cart {
	for i := range c.Lines {
		if c.Lines[i].Item == item {
			lines := append([]CartLine(nil), c.Lines...)
			lines[i].Qty += qty
			c.Lines = lines
			return c
		}
	}
	c.Lines = append(append([]CartLine(nil), c.Lines...), CartLine{Item: item, Qty: qty})
	return c
}

func cartSet(c Cart, item ItemID, qty int32) Cart {
	lines := make([]CartLine, 0, len(c.Lines))
	for _, l := range c.Lines {
		if l.Item == item {
			if qty > 0 {
				lines = append(lines, CartLine{Item: item, Qty: qty})
			}
			continue
		}
		lines = append(lines, l)
	}
	c.Lines = lines
	return c
}

func (s *Store) applyCreateCustomer(a CreateCustomerAction) CreateCustomerResult {
	addr := s.addAddress(a.Street1, a.Street2, a.City, a.State, a.Zip, a.Country)
	s.nextCustomer++
	id := s.nextCustomer
	c := Customer{
		ID:         id,
		UName:      customerUName(id),
		Passwd:     customerPasswd(id),
		FName:      a.FName,
		LName:      a.LName,
		Addr:       addr,
		Phone:      a.Phone,
		Email:      a.Email,
		Since:      a.Now,
		LastLogin:  a.Now,
		Login:      a.Now,
		Expiration: a.Now.Add(2 * time.Hour),
		Discount:   a.Discount,
		BirthDate:  a.BirthDate,
		Data:       a.Data,
	}
	s.customers[id] = &c
	s.byUName[c.UName] = id
	s.nominalBytes += nominalCustomer
	s.markCustomer(id)
	return CreateCustomerResult{Customer: c}
}

func (s *Store) addAddress(st1, st2, city, state, zip string, country CountryID) AddressID {
	s.nextAddress++
	id := s.nextAddress
	if int(country) < 1 || int(country) > len(s.cat.countries) {
		country = 1
	}
	s.addresses[id] = &Address{
		ID: id, Street1: st1, Street2: st2, City: city, State: state,
		Zip: zip, Country: country,
	}
	s.nominalBytes += nominalAddress
	s.markAddress(id)
	return id
}

func (s *Store) applyRefreshSession(a RefreshSessionAction) any {
	old, ok := s.customers[a.Customer]
	if !ok {
		return nil
	}
	c := *old // copy-on-write
	c.LastLogin = c.Login
	c.Login = a.Now
	c.Expiration = a.Now.Add(2 * time.Hour)
	s.customers[a.Customer] = &c
	s.markCustomer(a.Customer)
	return nil
}

// taxRate is the fixed TPC-W sales tax.
const taxRate = 0.0825

func (s *Store) applyBuyConfirm(a BuyConfirmAction) BuyConfirmResult {
	cart, ok := s.carts[a.Cart]
	if !ok || len(cart.Lines) == 0 {
		return BuyConfirmResult{Err: "empty or unknown cart"}
	}
	custp, ok := s.customers[a.Customer]
	if !ok {
		return BuyConfirmResult{Err: "unknown customer"}
	}
	cust := *custp // copy-on-write

	var subTotal float64
	lines := make([]OrderLine, 0, len(cart.Lines))
	for _, cl := range cart.Lines {
		item, ok := s.items[cl.Item]
		if !ok {
			continue
		}
		subTotal += item.Cost * float64(cl.Qty) * (1 - cust.Discount/100)
		lines = append(lines, OrderLine{
			Item:     cl.Item,
			Qty:      cl.Qty,
			Discount: cust.Discount,
			Comments: a.Comment,
		})
		// TPC-W stock rule (copy-on-write on the shared item).
		cp := *item
		cp.Stock -= cl.Qty
		if cp.Stock < 10 {
			cp.Stock += 21
		}
		s.items[cl.Item] = &cp
		s.markItem(cl.Item)
	}
	if len(lines) == 0 {
		return BuyConfirmResult{Err: "no valid items"}
	}
	tax := subTotal * taxRate
	total := subTotal + tax + shippingCost(len(lines))

	s.nextOrder++
	oid := s.nextOrder
	order := Order{
		ID:       oid,
		Customer: a.Customer,
		Date:     a.Now,
		SubTotal: subTotal,
		Tax:      tax,
		Total:    total,
		ShipType: a.ShipType,
		ShipDate: a.ShipDate,
		Status:   "PENDING",
		BillAddr: cust.Addr,
		ShipAddr: cust.Addr,
		Lines:    lines,
		CC: CCTransaction{
			Type:    a.CCType,
			Num:     a.CCNum,
			Name:    a.CCName,
			Expire:  a.CCExpire,
			AuthID:  "AUTH" + strconv.FormatInt(int64(oid), 10),
			Total:   total,
			ShipAt:  a.ShipDate,
			Country: s.addresses[cust.Addr].Country,
		},
	}
	s.orders[oid] = &order
	s.lastOrder[a.Customer] = oid
	s.pushRecentOrder(&order)
	s.nominalBytes += nominalOrder + nominalCC + int64(len(lines))*nominalLine
	s.markOrder(oid)
	s.markLastOrder(a.Customer)

	// The purchased cart is consumed.
	delete(s.carts, a.Cart)
	s.nominalBytes -= nominalCart + int64(len(cart.Lines))*nominalCartLine
	s.killCart(a.Cart)

	cust.Balance += total
	cust.YTDPmt += total
	s.customers[a.Customer] = &cust
	s.markCustomer(a.Customer)

	return BuyConfirmResult{Order: oid, Total: total}
}

// shippingCost mirrors TPC-W's flat-plus-per-item shipping charge.
func shippingCost(items int) float64 { return 3.0 + float64(items)*1.0 }

// pushRecentOrder admits an order to the best-sellers window, maintaining
// the rolling quantity aggregate incrementally.
func (s *Store) pushRecentOrder(o *Order) {
	if s.bsQty == nil {
		s.bsQty = make(map[ItemID]int64)
	}
	s.recentOrders = append(s.recentOrders, o.ID)
	for _, l := range o.Lines {
		s.bsQty[l.Item] += int64(l.Qty)
		s.bsIndexSync(l.Item)
	}
	s.coBoughtAdd(o)
	if len(s.recentOrders) > bestSellerWindow {
		evicted := s.recentOrders[0]
		s.recentOrders = s.recentOrders[1:]
		if old, ok := s.orders[evicted]; ok {
			for _, l := range old.Lines {
				if q := s.bsQty[l.Item] - int64(l.Qty); q > 0 {
					s.bsQty[l.Item] = q
				} else {
					delete(s.bsQty, l.Item)
				}
				s.bsIndexSync(l.Item)
			}
			s.coBoughtEvict(old)
		}
	}
	s.ordersSinceBS++
	if s.ordersSinceBS >= bestSellerRefresh {
		s.ordersSinceBS = 0
		s.bsCache = make(map[string][]BestSeller)
	}
}

func (s *Store) applyAdminUpdate(a AdminUpdateAction) any {
	old, ok := s.items[a.Item]
	if !ok {
		return nil
	}
	item := *old // copy-on-write
	item.Cost = a.Cost
	item.Image = a.Image
	item.Thumbnail = a.Thumbnail
	// Recompute related items from co-purchases in the recent-order
	// window (deterministic: stable tie-break by item id).
	item.Related = s.relatedFromOrders(a.Item)
	s.items[a.Item] = &item
	s.markItem(a.Item)
	return nil
}

// relatedFromOrders finds the five items most frequently bought together
// with the given item over the recent-order window. Each window order
// containing the item adds one per other line, so an item repeated across
// a gift order's lines counts once per line.
func (s *Store) relatedFromOrders(id ItemID) [5]ItemID {
	if s.coBought == nil {
		s.rebuildCoBought()
	}
	counts := make(map[ItemID]int)
	for _, order := range s.coBought[id] {
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
			// Fall back to catalog neighbours so the page always has
			// five entries, as in the reference implementation.
			next := (int32(id)+int32(slot))%s.cat.itemCount + 1
			related[slot] = ItemID(next)
			continue
		}
		related[slot] = best
		delete(counts, best)
	}
	return related
}

// rebuildCoBought derives coBought from the recentOrders window from
// scratch, skipping orders no longer in the store (dropped by a
// migration), as the window eviction does.
func (s *Store) rebuildCoBought() {
	s.coBought = make(map[ItemID][]*Order)
	for _, oid := range s.recentOrders {
		if o, ok := s.orders[oid]; ok {
			s.coBoughtAdd(o)
		}
	}
}

// coBoughtAdd lists o, the window's newest order, under each of its
// items. o is already last in an item's list when an earlier line had
// the same item, which keeps each order listed once per item. No-op
// while the index has not been built.
func (s *Store) coBoughtAdd(o *Order) {
	if s.coBought == nil {
		return
	}
	for _, l := range o.Lines {
		list := s.coBought[l.Item]
		if n := len(list); n > 0 && list[n-1] == o {
			continue
		}
		s.coBought[l.Item] = append(list, o)
	}
}

// coBoughtEvict unlists o, the window's oldest order, from the front of
// each of its items' lists. No-op while the index has not been built.
func (s *Store) coBoughtEvict(o *Order) {
	if s.coBought == nil {
		return
	}
	for _, l := range o.Lines {
		list := s.coBought[l.Item]
		if len(list) == 0 || list[0] != o {
			continue // a repeated item, already unlisted
		}
		if len(list) == 1 {
			delete(s.coBought, l.Item)
		} else {
			s.coBought[l.Item] = list[1:]
		}
	}
}

func customerUName(id CustomerID) string { return "C" + strconv.FormatInt(int64(id), 10) }
func customerPasswd(id CustomerID) string {
	return "pw" + strconv.FormatInt(int64(id), 10)
}
