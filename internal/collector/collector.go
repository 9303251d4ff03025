// Package collector simulates the public route collector projects the
// study consumes — RIPE RIS, RouteViews and Isolario — as vantage points
// peered with ASes in the simulated network.
//
// Each vantage point subscribes to its host router's full feed, applies the
// project's export-delay persona (RouteViews batches on a 50-second cycle,
// Isolario exports within 30 seconds, RIS is diverse — the behaviors
// measured in the paper's Figure 8), and archives the result as MRT
// BGP4MP_MESSAGE_AS4 records, the same byte format researchers download
// from the real projects.
package collector

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"slices"
	"sort"
	"time"

	"because/internal/bgp"
	"because/internal/mrt"
	"because/internal/obs"
	"because/internal/router"
	"because/internal/stats"
)

// Project identifies a route collector project persona.
type Project uint8

// The three projects of the study.
const (
	RIS Project = iota
	RouteViews
	Isolario
)

// Projects lists all personas in deterministic order.
var Projects = []Project{RIS, RouteViews, Isolario}

// String names the project.
func (p Project) String() string {
	switch p {
	case RIS:
		return "ris"
	case RouteViews:
		return "routeviews"
	case Isolario:
		return "isolario"
	default:
		return fmt.Sprintf("project(%d)", uint8(p))
	}
}

// exportDelay returns this project's export latency for an update received
// by the vantage point at recv. The shapes follow § 4.3: RouteViews
// vantage points export on a fixed 50 s batching cycle, Isolario within
// 30 s, and RIS shows diverse per-update delays up to a minute.
func (p Project) exportDelay(recv time.Time, rng *stats.RNG) time.Duration {
	switch p {
	case RouteViews:
		// Next 50-second boundary of the project's batch clock.
		const cycle = 50 * time.Second
		since := recv.Unix() % int64(cycle/time.Second)
		return time.Duration(int64(cycle/time.Second)-since) * time.Second
	case Isolario:
		return time.Duration(rng.Float64() * float64(30*time.Second))
	default: // RIS
		return time.Duration(rng.Float64() * float64(60*time.Second))
	}
}

// VantagePoint is one full-feed peering session between an AS in the
// simulated network and a collector project.
type VantagePoint struct {
	AS      bgp.ASN
	Project Project
}

// Addr derives the vantage point's stable peer IP (for MRT records).
func (v VantagePoint) Addr() netip.Addr {
	a := uint32(v.AS)
	return netip.AddrFrom4([4]byte{10, 255, byte(a >> 8), byte(a)})
}

// Entry is one archived routing update: which vantage point saw what, when
// it arrived at the VP and when the project exported it.
type Entry struct {
	VP VantagePoint
	// Received is the virtual time the update reached the vantage point.
	Received time.Time
	// Exported is Received plus the project's export delay; MRT records
	// carry this timestamp, exactly like real dumps.
	Exported time.Time
	Update   *bgp.Update
}

// Collector accumulates the entries of all attached vantage points.
type Collector struct {
	entries []Entry
	rngs    map[Project]*stats.RNG
	// lastExport enforces FIFO export per vantage point: a session's feed
	// never reorders, whatever the per-update export jitter says.
	lastExport map[VantagePoint]*time.Time
	obs        *obs.Observer
}

// The collector's own end of every archived session: the local AS and IP
// each BGP4MP record carries.
var (
	localAS = bgp.ASN(64999)
	localIP = netip.MustParseAddr("192.0.2.10")
)

// SetObserver attaches metrics and logging; each archived update then
// increments the per-project ingest counter. Call before AttachContext;
// nil (the default) disables instrumentation.
func (c *Collector) SetObserver(o *obs.Observer) { c.obs = o }

// New returns an empty collector. rng seeds the per-project export-delay
// streams.
func New(rng *stats.RNG) *Collector {
	c := &Collector{
		rngs:       make(map[Project]*stats.RNG, len(Projects)),
		lastExport: make(map[VantagePoint]*time.Time),
	}
	for _, p := range Projects {
		c.rngs[p] = rng.Split()
	}
	return c
}

// AttachContext subscribes every vantage point to its router's full feed.
// It returns an error if a VP references an unknown AS. When ctx carries a
// trace (obs.ContextWithSpan), the subscription stage records a
// "collector.attach" span with the vantage-point count. Attaching never
// blocks, so the context is an observability position only.
func (c *Collector) AttachContext(ctx context.Context, net *router.Network, vps []VantagePoint) error {
	tspan, _ := obs.StartTraceSpan(ctx, "collector.attach")
	tspan.SetAttr("vantage_points", len(vps))
	defer tspan.End()
	for _, vp := range vps {
		vp := vp
		// Resolved once per vantage point; the counter is nil when
		// unobserved.
		ingested := c.obs.Counter(obs.MetricCollectorUpdates, "project", vp.Project.String())
		rng := c.rngs[vp.Project]
		last := c.lastExport[vp]
		if last == nil {
			last = new(time.Time)
			c.lastExport[vp] = last
		}
		err := net.AttachMonitor(vp.AS, func(now time.Time, u *bgp.Update) {
			exported := now.Add(vp.Project.exportDelay(now, rng))
			if exported.Before(*last) {
				exported = *last // FIFO per session
			}
			*last = exported
			c.entries = append(c.entries, Entry{
				VP:       vp,
				Received: now,
				Exported: exported,
				Update:   u,
			})
			ingested.Inc()
		})
		if err != nil {
			return fmt.Errorf("collector: attaching %v/%v: %w", vp.AS, vp.Project, err)
		}
	}
	return nil
}

// Entries returns every archived entry sorted by export time (ties by
// receive time, then peer ASN — deterministic). The slice is owned by the
// collector; callers must not modify it.
func (c *Collector) Entries() []Entry {
	slices.SortStableFunc(c.entries, func(a, b Entry) int {
		if o := a.Exported.Compare(b.Exported); o != 0 {
			return o
		}
		if o := a.Received.Compare(b.Received); o != 0 {
			return o
		}
		return cmp.Compare(a.VP.AS, b.VP.AS)
	})
	return c.entries
}

// Len returns the number of archived entries.
func (c *Collector) Len() int { return len(c.entries) }

// WriteMRT serialises entries, in the given order, as MRT
// BGP4MP_MESSAGE_AS4 records to w, each under the collector's own AS and
// IP. Pass one project's entries for a per-project archive like the real
// ones.
func WriteMRT(w io.Writer, entries []Entry) error {
	mw := mrt.NewWriter(w)
	for _, e := range entries {
		if err := mw.WriteUpdate(e.Exported, e.VP.AS, localAS, e.VP.Addr(), localIP, e.Update); err != nil {
			return err
		}
	}
	return nil
}

// ReadMRT decodes an MRT archive produced by WriteMRT back into entries.
// Project attribution is not stored in MRT (real archives are per-project
// files); entries read back carry the provided project label.
func ReadMRT(r io.Reader, project Project) ([]Entry, error) {
	mr := mrt.NewReader(r)
	var out []Entry
	for {
		rec, err := mr.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if !rec.IsUpdate() {
			continue
		}
		out = append(out, Entry{
			VP:       VantagePoint{AS: rec.PeerAS, Project: project},
			Received: rec.Timestamp, // receive time is not archived; use export
			Exported: rec.Timestamp,
			Update:   rec.Update,
		})
	}
}

// WriteRIB reconstructs every vantage point's routing table as of time at
// from archived updates (sorted by export time — what Collector.Entries
// returns; exactly how RIB reconstruction from real update archives works)
// and writes it as an MRT TABLE_DUMP_V2 snapshot.
func WriteRIB(w io.Writer, sorted []Entry, at time.Time) error {
	type key struct {
		vp     VantagePoint
		prefix bgp.Prefix
	}
	best := make(map[key]Entry)
	vpSet := make(map[VantagePoint]bool)
	for _, e := range sorted {
		if e.Exported.After(at) {
			break // Entries() is sorted by export time
		}
		vpSet[e.VP] = true
		for _, p := range e.Update.Withdrawn {
			delete(best, key{e.VP, p})
		}
		for _, p := range e.Update.NLRI {
			best[key{e.VP, p}] = e
		}
	}
	if len(vpSet) == 0 {
		return fmt.Errorf("collector: no entries at or before %v", at)
	}

	var vps []VantagePoint
	for vp := range vpSet {
		vps = append(vps, vp)
	}
	sort.Slice(vps, func(i, j int) bool {
		if vps[i].AS != vps[j].AS {
			return vps[i].AS < vps[j].AS
		}
		return vps[i].Project < vps[j].Project
	})
	peers := make([]mrt.Peer, len(vps))
	peerOf := make(map[VantagePoint]mrt.Peer, len(vps))
	for i, vp := range vps {
		peers[i] = mrt.Peer{BGPID: vp.Addr(), Addr: vp.Addr(), AS: vp.AS}
		peerOf[vp] = peers[i]
	}
	// Distinct vantage points can share an AS (one per project); collapse
	// to unique peer addresses for the MRT peer table.
	uniq := peers[:0]
	seen := make(map[string]bool)
	for _, p := range peers {
		if !seen[p.Addr.String()] {
			seen[p.Addr.String()] = true
			uniq = append(uniq, p)
		}
	}
	rw, err := mrt.NewRIBWriter(w, at, uniq)
	if err != nil {
		return err
	}

	// Group current routes per prefix, deterministically: iterate best in
	// a fixed key order so each per-prefix entry slice is built the same
	// way every run, then the stable sort below cannot shuffle ties.
	routes := make([]key, 0, len(best))
	for k := range best {
		routes = append(routes, k)
	}
	sort.Slice(routes, func(i, j int) bool {
		if routes[i].vp.AS != routes[j].vp.AS {
			return routes[i].vp.AS < routes[j].vp.AS
		}
		if routes[i].vp.Project != routes[j].vp.Project {
			return routes[i].vp.Project < routes[j].vp.Project
		}
		return bgp.PrefixLess(routes[i].prefix, routes[j].prefix)
	})
	byPrefix := make(map[bgp.Prefix][]mrt.RIBEntry)
	for _, k := range routes {
		e := best[k]
		byPrefix[k.prefix] = append(byPrefix[k.prefix], mrt.RIBEntry{
			Peer:         peerOf[k.vp],
			OriginatedAt: e.Exported,
			Attrs:        e.Update,
		})
	}
	var prefixes []bgp.Prefix
	for p := range byPrefix {
		prefixes = append(prefixes, p)
	}
	sort.Slice(prefixes, func(i, j int) bool { return bgp.PrefixLess(prefixes[i], prefixes[j]) })
	for _, p := range prefixes {
		entries := byPrefix[p]
		sort.SliceStable(entries, func(i, j int) bool {
			if entries[i].Peer.AS != entries[j].Peer.AS {
				return entries[i].Peer.AS < entries[j].Peer.AS
			}
			return entries[i].OriginatedAt.Before(entries[j].OriginatedAt)
		})
		// Collapse duplicate peers (same AS hosting VPs of two projects).
		dedup := entries[:0]
		seenPeer := make(map[string]bool)
		for _, e := range entries {
			k := e.Peer.Addr.String()
			if !seenPeer[k] {
				seenPeer[k] = true
				dedup = append(dedup, e)
			}
		}
		if err := rw.WritePrefix(p, dedup); err != nil {
			return err
		}
	}
	return nil
}
