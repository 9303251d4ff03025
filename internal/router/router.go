// Package router simulates a network of BGP speakers, one per AS, on top of
// the netsim discrete-event engine. It reproduces the mechanisms the RFD
// measurement study depends on:
//
//   - per-neighbor Adj-RIB-In, a Loc-RIB decision process with
//     Gao–Rexford local preference (customer > peer > provider), AS-path
//     length and a deterministic tie-break;
//   - valley-free export with AS-path prepending and loop suppression,
//     which makes path hunting emerge naturally after withdrawals;
//   - the Minimum Route Advertisement Interval (MRAI, RFC 4271 § 9.2.1.1)
//     with per-session, per-prefix spacing;
//   - Route Flap Damping (RFC 2439) on the receive side, applied globally
//     or per neighbor (the heterogeneous configurations of § 2.1 and the
//     AS 701 case of § 5.1);
//   - an import-filter hook used by the ROV experiments to drop
//     RPKI-invalid routes.
//
// Monitors attached to a router receive its full-feed exports, which is how
// the collector package implements vantage points.
package router

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"because/internal/bgp"
	"because/internal/netsim"
	"because/internal/rfd"
	"because/internal/stats"
	"because/internal/topology"
)

// Local preference values assigned by relationship, implementing the
// Gao–Rexford preference: customer routes are the most preferred (they earn
// money), then peers, then providers.
const (
	LocalPrefCustomer = 300
	LocalPrefPeer     = 200
	LocalPrefProvider = 100
)

// RFDPolicy configures damping on one router.
type RFDPolicy struct {
	// Params is the RFC 2439 parameter set.
	Params rfd.Params
	// DampNeighbor selects the sessions damping applies to; nil means all
	// sessions. This models operators that damp e.g. only customers, the
	// heterogeneous deployments the paper highlights.
	DampNeighbor func(neighbor bgp.ASN, rel topology.Relationship) bool
	// ParamsFor, when non-nil, overrides Params per prefix — the
	// prefix-length-dependent configurations § 2.1 reports ("shorter
	// prefixes were damped more aggressively in one network"). A nil
	// return falls back to Params.
	ParamsFor func(prefix bgp.Prefix) *rfd.Params
}

// Damps reports whether the policy applies damping on the session toward
// neighbor with the given relationship. It is the single predicate the
// simulator's receive side evaluates, exposed so configuration renderers
// (the scenario golden-config path) describe exactly what the router will
// do rather than re-deriving it from deployment metadata. Nil policies and
// nil DampNeighbor selectors follow the documented defaults: no damping at
// all, and damping on every session, respectively.
func (p *RFDPolicy) Damps(neighbor bgp.ASN, rel topology.Relationship) bool {
	if p == nil {
		return false
	}
	if p.DampNeighbor == nil {
		return true
	}
	return p.DampNeighbor(neighbor, rel)
}

// paramsFor resolves the parameter set for one prefix.
func (p *RFDPolicy) paramsFor(prefix bgp.Prefix) rfd.Params {
	if p.ParamsFor != nil {
		if o := p.ParamsFor(prefix); o != nil {
			return *o
		}
	}
	return p.Params
}

// ImportFilter decides whether owner accepts a route for prefix with the
// given AS path (false drops it). Used for RPKI route origin validation.
type ImportFilter func(owner bgp.ASN, prefix bgp.Prefix, path bgp.Path) bool

// MonitorFunc receives updates exported by a router to an attached
// monitoring session at virtual time now. Each call gets its own
// *bgp.Update with its own NLRI and Withdrawn slices, which the monitor may
// keep and modify. The update's ASPath and Aggregator are shared with the
// router and with every other monitor, and are immutable: a monitor must
// not modify them in place.
type MonitorFunc func(now time.Time, u *bgp.Update)

// Options configures network construction. Zero-value fields fall back to
// the defaults described on each field.
type Options struct {
	// LinkDelay returns the one-way message delay between adjacent ASes.
	// Default: deterministic per-link delay drawn uniformly in [20ms, 1s].
	LinkDelay func(a, b bgp.ASN, rng *stats.RNG) time.Duration
	// MRAI returns the per-router minimum route advertisement interval.
	// Default: 30s with probability 0.3 (one vendor's default, § 4.2),
	// otherwise uniform in [0s, 5s].
	MRAI func(asn bgp.ASN, rng *stats.RNG) time.Duration
	// RFD returns the damping policy for a router (nil = damping off).
	// Default: nil for every router.
	RFD func(asn bgp.ASN) *RFDPolicy
	// ImportFilter, when non-nil, can reject routes at import time.
	ImportFilter ImportFilter
}

func defaultLinkDelay(a, b bgp.ASN, rng *stats.RNG) time.Duration {
	return 20*time.Millisecond + time.Duration(rng.Float64()*float64(980*time.Millisecond))
}

func defaultMRAI(asn bgp.ASN, rng *stats.RNG) time.Duration {
	if rng.Float64() < 0.3 {
		return 30 * time.Second
	}
	return time.Duration(rng.Float64() * float64(5*time.Second))
}

// dampKey identifies damping state: per session position, per prefix id.
type dampKey struct {
	session int32
	prefix  int32
}

// adjRoute is an Adj-RIB-In entry.
type adjRoute struct {
	path       bgp.Path
	aggregator *bgp.Aggregator
	seen       bool // the neighbor has announced the prefix at least once
	valid      bool // currently announced by the neighbor
	suppressed bool // withheld by RFD
}

// attrsEqual reports whether two adj-in routes carry the same attributes
// (the properties that propagate: path and aggregator).
func (r *adjRoute) attrsEqual(path bgp.Path, agg *bgp.Aggregator) bool {
	return r.path.Equal(path) && aggEqual(r.aggregator, agg)
}

// selection is a Loc-RIB entry: the winning route for a prefix.
type selection struct {
	neighbor   bgp.ASN // 0 for locally originated
	rel        topology.Relationship
	path       bgp.Path // as received (no own prepend)
	aggregator *bgp.Aggregator
	local      bool
}

func (s *selection) equal(o *selection) bool {
	return s.neighbor == o.neighbor && s.local == o.local && s.path.Equal(o.path) && aggEqual(s.aggregator, o.aggregator)
}

// ribState is everything one router holds about one prefix.
type ribState struct {
	// origin is the aggregator the router originates the prefix with; nil
	// while it does not originate it.
	origin *bgp.Aggregator
	// adjIn is the Adj-RIB-In and adjOut the Adj-RIB-Out with its MRAI
	// state, both indexed by session position.
	adjIn  []adjRoute
	adjOut []exportState
	// best is the Loc-RIB entry, meaningful when hasBest.
	best    selection
	hasBest bool
	// out is best.path with the router's ASN prepended, as advertised: the
	// Network's interned copy, looked up on first use after each change of
	// the winner.
	out bgp.Path
	// monitorExported tracks announce state toward monitors so withdrawals
	// are only emitted for previously announced prefixes.
	monitorExported bool
	// damper is the RFC 2439 engine whose parameters apply to the prefix,
	// resolved on first use.
	damper *rfd.Damper[dampKey]
}

// exportState tracks what a router last told one neighbor about one
// prefix, and its sending-side MRAI state.
type exportState struct {
	advertised bool
	path       bgp.Path
	aggregator *bgp.Aggregator

	// lastSent is the time of the last announcement, valid when sent.
	lastSent time.Time
	sent     bool
	pending  bool // an MRAI flush event is scheduled
}

// session is one eBGP adjacency from the owning router's perspective.
type session struct {
	neighbor bgp.ASN
	rel      topology.Relationship
	delay    time.Duration
	damped   bool // receive-side damping enabled for this session

	peer *Router // the neighbor's speaker
	back int32   // position of the reverse session in peer.sessions
}

// Router is one BGP speaker.
type Router struct {
	asn bgp.ASN
	net *Network

	// sessions is sorted by neighbor ASN, which makes iteration
	// deterministic; a session's position indexes ribState.adjIn and
	// ribState.adjOut.
	sessions []*session
	ribs     []ribState // indexed by prefix id

	mrai time.Duration
	// dampers holds one RFC 2439 engine per distinct parameter set in use
	// (prefix-dependent policies resolve to different sets).
	dampers map[rfd.Params]*rfd.Damper[dampKey]
	policy  *RFDPolicy

	monitors []MonitorFunc

	// Counters for introspection.
	UpdatesReceived uint64
	UpdatesSent     uint64
}

// damperFor returns (creating on first use) the damping engine whose
// parameters apply to prefix id.
func (r *Router) damperFor(id int32) *rfd.Damper[dampKey] {
	rs := &r.ribs[id]
	if rs.damper == nil {
		params := r.policy.paramsFor(r.net.prefixes[id])
		d, ok := r.dampers[params]
		if !ok {
			d = rfd.New[dampKey](params)
			r.dampers[params] = d
		}
		rs.damper = d
	}
	return rs.damper
}

// Network is the simulated BGP speaker mesh.
type Network struct {
	engine  *netsim.Engine
	graph   *topology.Graph
	routers map[bgp.ASN]*Router
	opts    Options
	// sessions counts the sessions of every router.
	sessions int

	// Prefixes get dense ids on first use; per-prefix state is indexed by
	// them.
	prefixIDs map[bgp.Prefix]int32
	prefixes  []bgp.Prefix

	// paths interns advertised AS paths, keyed by the advertising ASN and
	// the received path's content (see internPath); pathKey is the reused
	// lookup key.
	paths   map[string]bgp.Path
	pathKey []byte

	// Delivered messages and fired MRAI timers, kept for reuse.
	messages pool[message]
	timers   pool[mraiTimer]
}

// pool is a free list of recycled values.
type pool[T any] []*T

// get returns a recycled value, or a new zero one.
func (p *pool[T]) get() *T {
	n := len(*p)
	if n == 0 {
		return new(T)
	}
	v := (*p)[n-1]
	*p = (*p)[:n-1]
	return v
}

// put zeroes v and keeps it for reuse; the caller must hold no other
// reference to it.
func (p *pool[T]) put(v *T) {
	*v = *new(T)
	*p = append(*p, v)
}

// New builds a network over graph on engine. Construction draws link
// delays and MRAI values from rng, so the same seed reproduces the same
// network.
func New(engine *netsim.Engine, graph *topology.Graph, opts Options, rng *stats.RNG) *Network {
	if opts.LinkDelay == nil {
		opts.LinkDelay = defaultLinkDelay
	}
	if opts.MRAI == nil {
		opts.MRAI = defaultMRAI
	}
	n := &Network{
		engine:    engine,
		graph:     graph,
		routers:   make(map[bgp.ASN]*Router, graph.Len()),
		opts:      opts,
		prefixIDs: make(map[bgp.Prefix]int32),
		paths:     make(map[string]bgp.Path),
	}
	for _, asn := range graph.ASNs() {
		r := &Router{
			asn:  asn,
			net:  n,
			mrai: opts.MRAI(asn, rng),
		}
		if opts.RFD != nil {
			if pol := opts.RFD(asn); pol != nil {
				r.policy = pol
				r.dampers = make(map[rfd.Params]*rfd.Damper[dampKey])
			}
		}
		n.routers[asn] = r
	}
	// One session per neighbor, in the graph's ASN-sorted neighbor order.
	for _, asn := range graph.ASNs() {
		r := n.routers[asn]
		n.sessions += len(graph.AS(asn).Neighbors)
		for _, nb := range graph.AS(asn).Neighbors {
			r.sessions = append(r.sessions, &session{
				neighbor: nb.ASN,
				rel:      nb.Rel,
				damped:   r.policy.Damps(nb.ASN, nb.Rel),
				peer:     n.routers[nb.ASN],
			})
		}
	}
	// Link delay is symmetric and drawn once per link, by the lower-ASN
	// endpoint.
	for _, asn := range graph.ASNs() {
		r := n.routers[asn]
		for i, s := range r.sessions {
			if s.neighbor < asn {
				continue
			}
			j := s.peer.sessionTo(asn)
			rev := s.peer.sessions[j]
			s.back, rev.back = j, int32(i)
			s.delay = opts.LinkDelay(asn, s.neighbor, rng)
			rev.delay = s.delay
		}
	}
	return n
}

// sessionTo returns the position of the session toward neighbor.
func (r *Router) sessionTo(neighbor bgp.ASN) int32 {
	i := sort.Search(len(r.sessions), func(i int) bool { return r.sessions[i].neighbor >= neighbor })
	return int32(i)
}

// prefixID returns prefix's dense id. On first use it assigns the next id
// and gives every router state for it. That growth may move the
// per-prefix slices, so only the scheduling entry points call it, never
// the router's own event handlers.
func (n *Network) prefixID(prefix bgp.Prefix) int32 {
	if id, ok := n.prefixIDs[prefix]; ok {
		return id
	}
	id := int32(len(n.prefixes))
	n.prefixIDs[prefix] = id
	n.prefixes = append(n.prefixes, prefix)
	// One Adj-RIB-In and one Adj-RIB-Out slab for the prefix, cut into
	// per-router pieces.
	adjIn, adjOut := make([]adjRoute, n.sessions), make([]exportState, n.sessions)
	for _, asn := range n.graph.ASNs() {
		r := n.routers[asn]
		k := len(r.sessions)
		r.ribs = append(r.ribs, ribState{adjIn: adjIn[:k:k], adjOut: adjOut[:k:k]})
		adjIn, adjOut = adjIn[k:], adjOut[k:]
	}
	return id
}

// Router returns the speaker for asn, or nil.
func (n *Network) Router(asn bgp.ASN) *Router { return n.routers[asn] }

// AttachMonitor subscribes fn to the full-feed exports of asn's router, as
// a route collector session would. It returns an error for unknown ASes.
func (n *Network) AttachMonitor(asn bgp.ASN, fn MonitorFunc) error {
	r := n.routers[asn]
	if r == nil {
		return fmt.Errorf("router: no such AS %v", asn)
	}
	r.monitors = append(r.monitors, fn)
	return nil
}

// Originate schedules an announcement of prefix from asn at the current
// virtual time, with aggregatorTS carried in the transitive AGGREGATOR
// attribute (the beacon timestamp trick).
func (n *Network) Originate(asn bgp.ASN, prefix bgp.Prefix, aggregatorTS uint32) error {
	r := n.routers[asn]
	if r == nil {
		return fmt.Errorf("router: no such AS %v", asn)
	}
	id := n.prefixID(prefix)
	n.engine.After(0, netsim.Func(func() {
		r.setOrigin(id, &bgp.Aggregator{AS: asn, ID: aggregatorTS})
	}))
	return nil
}

// WithdrawOrigin schedules a withdrawal of a locally originated prefix.
func (n *Network) WithdrawOrigin(asn bgp.ASN, prefix bgp.Prefix) error {
	r := n.routers[asn]
	if r == nil {
		return fmt.Errorf("router: no such AS %v", asn)
	}
	id := n.prefixID(prefix)
	n.engine.After(0, netsim.Func(func() { r.setOrigin(id, nil) }))
	return nil
}

// setOrigin starts (agg non-nil) or stops originating prefix id and
// re-runs the decision process.
func (r *Router) setOrigin(id int32, agg *bgp.Aggregator) {
	r.ribs[id].origin = agg
	r.runDecision(id)
}

// message is the in-flight representation of an UPDATE between two
// simulated speakers, and is itself the scheduled delivery event. Messages
// are recycled through the Network's pool once delivered. (Collector
// sessions serialise to the real wire format; speaker-to-speaker hops stay
// in memory for speed.)
type message struct {
	to         *Router
	from       int32 // the sender's session position in to.sessions
	prefix     int32 // prefix id
	withdraw   bool
	path       bgp.Path
	aggregator *bgp.Aggregator
}

// Handle delivers the message to its receiver and recycles it: receive
// copies what it keeps (the path header and the aggregator pointer), so
// nothing refers to the message afterwards.
func (m *message) Handle() {
	to := m.to
	to.receive(m)
	to.net.messages.put(m)
}

// receive processes one update message at the current virtual time.
func (r *Router) receive(m *message) {
	r.UpdatesReceived++
	entry := &r.ribs[m.prefix].adjIn[m.from]

	if m.withdraw {
		if !entry.valid {
			return // withdrawal for a route we do not hold: no-op
		}
		entry.valid = false
		r.recordFlap(m.from, m.prefix, rfd.EventWithdraw)
		r.runDecision(m.prefix)
		return
	}

	// Announcement. Loop prevention: a path containing our ASN is dropped.
	if m.path.Contains(r.asn) {
		return
	}
	// Import filter (ROV hook).
	if f := r.net.opts.ImportFilter; f != nil && !f(r.asn, r.net.prefixes[m.prefix], m.path) {
		return
	}

	// Classify the event for damping before overwriting state.
	var ev rfd.Event
	havePenalty := false
	switch {
	case !entry.seen:
		// Initial advertisement: no penalty (RFC 2439 § 4.4.2).
	case !entry.valid:
		ev, havePenalty = rfd.EventReadvertise, true
	case !entry.attrsEqual(m.path, m.aggregator):
		ev, havePenalty = rfd.EventAttrChange, true
	default:
		// Exact duplicate: no penalty, nothing to do.
		return
	}

	entry.path = m.path
	entry.aggregator = m.aggregator
	entry.seen = true
	entry.valid = true

	if havePenalty {
		r.recordFlap(m.from, m.prefix, ev)
	}
	r.runDecision(m.prefix)
}

// recordFlap charges a damping penalty for ev on the route from session i
// when that session is damped, and arms the reuse timer if the route
// becomes suppressed.
func (r *Router) recordFlap(i, id int32, ev rfd.Event) {
	if !r.sessions[i].damped {
		return
	}
	entry := &r.ribs[id].adjIn[i]
	if r.damperFor(id).Record(dampKey{i, id}, r.net.engine.Now(), ev) && !entry.suppressed {
		entry.suppressed = true
		r.scheduleReuse(i, id)
	}
}

// scheduleReuse arms a release check for a suppressed (session, prefix).
func (r *Router) scheduleReuse(i, id int32) {
	now := r.net.engine.Now()
	at, ok := r.damperFor(id).ReuseAt(dampKey{i, id}, now)
	if !ok {
		return
	}
	// A small epsilon past the threshold crossing avoids floating-point
	// equality issues at the exact boundary.
	r.net.engine.At(at.Add(time.Millisecond), netsim.Func(func() { r.reuseCheck(i, id) }))
}

// reuseCheck releases a suppressed route if its penalty has decayed below
// the reuse threshold, or re-arms the timer if more flaps pushed it up.
func (r *Router) reuseCheck(i, id int32) {
	entry := &r.ribs[id].adjIn[i]
	if !entry.suppressed {
		return
	}
	if r.damperFor(id).Suppressed(dampKey{i, id}, r.net.engine.Now()) {
		r.scheduleReuse(i, id)
		return
	}
	entry.suppressed = false
	// The delayed re-advertisement: if the released route wins the decision
	// process it is exported now — minutes after the last beacon event,
	// which is exactly the r-delta signature of § 4.1.
	r.runDecision(id)
}

// localPref maps a session relationship to the standard preference tiers.
func localPref(rel topology.Relationship) int {
	switch rel {
	case topology.RelCustomer:
		return LocalPrefCustomer
	case topology.RelPeer:
		return LocalPrefPeer
	default:
		return LocalPrefProvider
	}
}

// better reports whether candidate beats incumbent in the decision process.
//
//lint:hotpath
func better(candidate, incumbent *selection) bool {
	// Locally originated routes always win.
	if candidate.local != incumbent.local {
		return candidate.local
	}
	cp, ip := localPref(candidate.rel), localPref(incumbent.rel)
	if cp != ip {
		return cp > ip
	}
	cl, il := candidate.path.Len(), incumbent.path.Len()
	if cl != il {
		return cl < il
	}
	return candidate.neighbor < incumbent.neighbor
}

// runDecision re-runs route selection for prefix id and exports any change.
func (r *Router) runDecision(id int32) {
	rs := &r.ribs[id]
	var best selection
	found := rs.origin != nil
	if found {
		best = selection{local: true, aggregator: rs.origin}
	}
	// Deterministic iteration: session order.
	for i := range rs.adjIn {
		entry := &rs.adjIn[i]
		if !entry.valid || entry.suppressed {
			continue
		}
		s := r.sessions[i]
		cand := selection{
			neighbor:   s.neighbor,
			rel:        s.rel,
			path:       entry.path,
			aggregator: entry.aggregator,
		}
		if !found || better(&cand, &best) {
			best, found = cand, true
		}
	}
	if found == rs.hasBest && (!found || best.equal(&rs.best)) {
		return
	}
	rs.best, rs.hasBest, rs.out = best, found, bgp.Path{}
	r.export(id)
}

// advertised returns the Loc-RIB winner's path with the router's ASN
// prepended, looking it up once per winner.
func (r *Router) advertised(rs *ribState) bgp.Path {
	if rs.out.Segments == nil {
		rs.out = r.net.internPath(r.asn, rs.best.path)
	}
	return rs.out
}

// internPath returns path with asn prepended. Every call with the same asn
// and path content returns the same immutable path, so equal advertised
// paths share one backing array; a repeated lookup allocates nothing.
func (n *Network) internPath(asn bgp.ASN, path bgp.Path) bgp.Path {
	k := binary.LittleEndian.AppendUint32(n.pathKey[:0], uint32(asn))
	for _, seg := range path.Segments {
		k = binary.LittleEndian.AppendUint32(append(k, byte(seg.Type)), uint32(len(seg.ASNs)))
		for _, a := range seg.ASNs {
			k = binary.LittleEndian.AppendUint32(k, uint32(a))
		}
	}
	n.pathKey = k
	if p, ok := n.paths[string(k)]; ok {
		return p
	}
	p := path.Prepend(asn, 1)
	n.paths[string(k)] = p
	return p
}

// Best returns the router's current best path for prefix (own ASN
// prepended, as it would be advertised), or ok=false if unreachable.
func (r *Router) Best(prefix bgp.Prefix) (bgp.Path, bool) {
	id, ok := r.net.prefixIDs[prefix]
	if !ok || !r.ribs[id].hasBest {
		return bgp.Path{}, false
	}
	return r.ribs[id].best.path.Prepend(r.asn, 1), true
}

// export sends the new selection (or withdrawal) to every eligible session
// and to attached monitors.
func (r *Router) export(id int32) {
	rs := &r.ribs[id]
	for i, s := range r.sessions {
		announce := r.exportDecision(s, rs)
		if !announce && !rs.adjOut[i].advertised {
			continue // never told them about it; no withdrawal needed
		}
		r.sendWithMRAI(int32(i), id, announce)
	}
	r.exportToMonitors(id)
}

// exportDecision reports whether the Loc-RIB winner in rs is announced to
// the neighbor on s; false means withdraw (or stay silent).
//
//lint:hotpath
func (r *Router) exportDecision(s *session, rs *ribState) bool {
	if !rs.hasBest {
		return false
	}
	fromRel := topology.RelCustomer // originated routes export everywhere
	if !rs.best.local {
		fromRel = rs.best.rel
	}
	return topology.ShouldExport(fromRel, s.rel) && !rs.best.path.Contains(s.neighbor) && s.neighbor != r.asn
}

// sendWithMRAI applies per-(session,prefix) MRAI pacing and dispatches the
// update. Withdrawals are not paced (RFC 4271 applies MRAI to
// advertisements; withdrawal pacing was removed by common practice).
func (r *Router) sendWithMRAI(i, id int32, announce bool) {
	st := &r.ribs[id].adjOut[i]
	if announce && r.mrai > 0 && st.sent {
		if wait := r.mrai - r.net.engine.Now().Sub(st.lastSent); wait > 0 {
			// Queue: when the timer fires, re-evaluate the then-current
			// best route, collapsing intermediate churn (that is MRAI's
			// entire purpose).
			if !st.pending {
				st.pending = true
				t := r.net.timers.get()
				t.r, t.session, t.id = r, i, id
				r.net.engine.After(wait, t)
			}
			return
		}
	}
	r.transmit(i, id, announce)
}

// mraiTimer is the MRAI expiry of one (session, prefix); timers are
// recycled through the Network's pool once fired.
type mraiTimer struct {
	r       *Router
	session int32 // position in r.sessions
	id      int32
}

// Handle flushes the pending export and recycles the timer.
func (t *mraiTimer) Handle() {
	r := t.r
	r.flushPending(t.session, t.id)
	r.net.timers.put(t)
}

// flushPending re-runs the export decision for a prefix whose MRAI timer
// expired.
func (r *Router) flushPending(i, id int32) {
	rs := &r.ribs[id]
	st := &rs.adjOut[i]
	if !st.pending {
		return
	}
	st.pending = false
	announce := r.exportDecision(r.sessions[i], rs)
	if !announce && !st.advertised {
		return
	}
	// Suppress no-op announcements (the state we'd send is already there).
	if announce && st.advertised && st.path.Equal(r.advertised(rs)) && aggEqual(st.aggregator, rs.best.aggregator) {
		return
	}
	r.transmit(i, id, announce)
}

func aggEqual(a, b *bgp.Aggregator) bool {
	switch {
	case a == nil && b == nil:
		return true
	case a == nil || b == nil:
		return false
	default:
		return *a == *b
	}
}

// transmit builds the update, schedules its delivery to the neighbor after
// the link delay and records export state.
func (r *Router) transmit(i, id int32, announce bool) {
	s, rs := r.sessions[i], &r.ribs[id]
	st := &rs.adjOut[i]
	st.advertised = announce
	m := r.net.messages.get()
	m.to, m.from, m.prefix, m.withdraw = s.peer, s.back, id, !announce
	if announce {
		m.path, m.aggregator = r.advertised(rs), rs.best.aggregator
		st.path, st.aggregator = m.path, m.aggregator
		st.sent, st.lastSent = true, r.net.engine.Now()
	}
	r.UpdatesSent++
	r.net.engine.After(s.delay, m)
}

// monitorUpdate is one monitor's update together with the single prefix
// its NLRI or Withdrawn slice views, so both come in one allocation.
type monitorUpdate struct {
	bgp.Update
	prefix [1]bgp.Prefix
}

// exportToMonitors mirrors the update to monitoring sessions (full feed,
// no policy, no MRAI — collectors see everything the router decides). Each
// monitor gets its own update; the path and aggregator are shared.
func (r *Router) exportToMonitors(id int32) {
	if len(r.monitors) == 0 {
		return
	}
	rs := &r.ribs[id]
	if !rs.hasBest && !rs.monitorExported {
		return
	}
	rs.monitorExported = rs.hasBest
	now := r.net.engine.Now()
	for _, fn := range r.monitors {
		mu := &monitorUpdate{prefix: [1]bgp.Prefix{r.net.prefixes[id]}}
		if rs.hasBest {
			mu.Origin, mu.ASPath, mu.NLRI, mu.Aggregator = bgp.OriginIGP, r.advertised(rs), mu.prefix[:], rs.best.aggregator
		} else {
			mu.Withdrawn = mu.prefix[:]
		}
		fn(now, &mu.Update)
	}
}
