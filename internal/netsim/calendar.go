package netsim

import (
	"cmp"
	"math/bits"
	"slices"
)

// The calendar's geometry (R. Brown, "Calendar Queues", CACM 1988): a
// wheel of wheelSize buckets, each bucketShift bits of UnixNano wide.
// 2^22 ns ≈ 4.2 ms per bucket and 2^14 buckets give a window of ≈ 68.7 s,
// which covers the simulator's common horizons: link delays (20 ms–1 s)
// and MRAI timers (≈ 30 s).
const (
	bucketShift = 22
	wheelSize   = 1 << 14
	wheelMask   = wheelSize - 1
)

// node is one wheel event in a bucket's singly linked list. next is the
// index+1 of the following node in the same bucket, or of the next free
// node when the node is on the free list; 0 ends either list.
type node struct {
	ev   event
	next int32
}

// calendar is the Engine's event queue, ordered by (key, seq) like the
// heap it fronts. An event's bucket is key>>bucketShift; cur is the
// bucket being executed. Every queued event sits in exactly one of three
// tiers, and each tier's events order after the previous tier's:
//
//   - run: the events of buckets <= cur, sorted; run[head:] are pending.
//   - the wheel: buckets cur+1 … cur+wheelSize-1, one list per bucket at
//     index bucket&wheelMask, with an occupancy bitmap to skip empty
//     buckets.
//   - over: a 4-ary heap of events at bucket cur+wheelSize or later
//     (beacon schedules, churn flips, RFD reuse timers). Whenever cur
//     advances, the events the window now reaches move into the wheel,
//     so no overflow event is ever within the window.
//
// Pushes and pops cost O(1) amortised except for the rare overflow
// event; making a bucket current sorts its few events once.
//
// The sort only has to order by key: a stable sort keeps ties in seq
// order, because a bucket's list, read back to front (pushes prepend),
// holds equal keys in seq order. Direct pushes arrive in seq order, since
// seq grows with every At. Overflow events arrive before any direct push
// to their bucket: the bucket enters the window when cur advances, its
// overflow events move in at that same step (popped in (key, seq) order),
// and only from then on can a push land in it directly, with a larger
// seq than theirs.
type calendar struct {
	run  []event
	head int
	cur  int64

	first    [wheelSize]int32 // index+1 of each bucket's first node; 0 when empty
	occupied [wheelSize / 64]uint64
	inWheel  int
	nodes    []node
	free     int32 // index+1 of the first free node; 0 when none

	over queue
}

// bucketOf returns the bucket holding instants with UnixNano key.
func bucketOf(key int64) int64 { return key >> bucketShift }

// cmpKey orders events by instant alone; see calendar for why ties need
// no seq comparison when a bucket becomes current.
func cmpKey(a, b event) int { return cmp.Compare(a.key, b.key) }

// sortByKey stably sorts a bucket's events by key. Buckets usually hold
// a handful of events, which an inline insertion sort orders fastest; a
// crowded bucket takes the O(n log n) library sort instead.
//
//lint:hotpath
func sortByKey(run []event) {
	if len(run) > 32 {
		slices.SortStableFunc(run, cmpKey)
		return
	}
	for i := 1; i < len(run); i++ {
		ev := run[i]
		j := i
		for ; j > 0 && run[j-1].key > ev.key; j-- {
			run[j] = run[j-1]
		}
		run[j] = ev
	}
}

// cmpEvent orders events by (key, seq), the queue's total order.
func cmpEvent(a, b event) int {
	if a.key != b.key {
		return cmp.Compare(a.key, b.key)
	}
	return cmp.Compare(a.seq, b.seq)
}

// push inserts ev, whose seq must exceed that of every event pushed
// before it.
//
//lint:hotpath
func (c *calendar) push(ev event) {
	b := bucketOf(ev.key)
	switch {
	case b <= c.cur:
		// Due in the current bucket: insert into run.
		c.insertRun(ev)
	case b < c.cur+wheelSize:
		c.link(b, ev)
	default:
		c.over.push(ev)
	}
}

// insertRun places ev among run's pending events in (key, seq) order.
//
//lint:hotpath
func (c *calendar) insertRun(ev event) {
	if c.head == len(c.run) {
		c.run, c.head = c.run[:0], 0
	}
	i, _ := slices.BinarySearchFunc(c.run[c.head:], ev, cmpEvent)
	i += c.head
	c.run = append(c.run, event{}) //lint:allow hotpath amortised growth; steady-state pushes reuse capacity
	copy(c.run[i+1:], c.run[i:])
	c.run[i] = ev
}

// link prepends ev to wheel bucket b's list.
//
//lint:hotpath
func (c *calendar) link(b int64, ev event) {
	n := c.free
	if n != 0 {
		c.free = c.nodes[n-1].next
	} else {
		c.nodes = append(c.nodes, node{}) //lint:allow hotpath amortised growth; steady-state pushes reuse freed nodes
		n = int32(len(c.nodes))
	}
	i := b & wheelMask
	c.nodes[n-1] = node{ev: ev, next: c.first[i]}
	c.first[i] = n
	c.occupied[i>>6] |= 1 << (i & 63)
	c.inWheel++
}

// pop removes and returns the earliest queued event, making the next
// occupied bucket current if run has no pending event. It reports false
// when the queue is empty.
//
//lint:hotpath
func (c *calendar) pop() (event, bool) {
	if c.head == len(c.run) && !c.advance() {
		return event{}, false
	}
	c.head++
	return c.run[c.head-1], true
}

// advance makes the next occupied bucket current: it loads the bucket's
// events into run, sorted, and moves the overflow events the new window
// reaches into the wheel. When the wheel is empty the window jumps to the
// overflow's earliest bucket. It reports false when the queue is empty.
//
//lint:hotpath
func (c *calendar) advance() bool {
	if c.inWheel == 0 {
		if len(c.over) == 0 {
			return false
		}
		c.cur = bucketOf(c.over[0].key) - 1
		c.refill()
	}
	c.cur += c.distance()
	i := c.cur & wheelMask
	c.occupied[i>>6] &^= 1 << (i & 63)
	run := c.run[:0]
	for n := c.first[i]; n != 0; {
		nd := &c.nodes[n-1]
		run = append(run, nd.ev) //lint:allow hotpath amortised growth; steady-state buckets reuse capacity
		next := nd.next
		nd.next = c.free
		c.free = n
		n = next
	}
	c.first[i] = 0
	c.inWheel -= len(run)
	slices.Reverse(run)
	sortByKey(run)
	c.run, c.head = run, 0
	c.refill()
	return true
}

// distance returns how many buckets past cur the next occupied wheel
// bucket lies. The wheel must be non-empty.
//
//lint:hotpath
func (c *calendar) distance() int64 {
	i := int(c.cur+1) & wheelMask
	w := i >> 6
	if m := c.occupied[w] >> (i & 63); m != 0 {
		return 1 + int64(bits.TrailingZeros64(m))
	}
	// Scan the following words, wrapping round to w's low bits last.
	d := 1 + int64(64-i&63)
	for k := 1; k <= len(c.occupied); k++ {
		if m := c.occupied[(w+k)%len(c.occupied)]; m != 0 {
			return d + int64(bits.TrailingZeros64(m))
		}
		d += 64
	}
	panic("netsim: calendar wheel count out of sync with its occupancy bitmap")
}

// refill moves every overflow event the window now reaches into its
// wheel bucket.
//
//lint:hotpath
func (c *calendar) refill() {
	for len(c.over) > 0 && bucketOf(c.over[0].key) < c.cur+wheelSize {
		ev := c.over.pop()
		c.link(bucketOf(ev.key), ev)
	}
}
