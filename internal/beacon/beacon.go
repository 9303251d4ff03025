// Package beacon implements the paper's two-phase RFD Beacons (§ 4.1): IP
// prefixes that oscillate between announcement and withdrawal on a
// controlled schedule.
//
// A Beacon schedule alternates two phases:
//
//	Burst: alternating withdrawals and announcements — starting with a
//	       withdrawal and ending with an announcement — spaced by the
//	       update interval;
//	Break: silence, long enough for RFD penalties to decay and suppressed
//	       prefixes to be re-advertised.
//
// Each announcement carries its sending time in the transitive BGP
// aggregator attribute (the RIPE-beacon timestamp trick), so vantage points
// can attribute every observed update to the beacon event that caused it.
// Anchor prefixes announce/withdraw on a slow two-hour cycle and serve as
// the propagation-time control.
package beacon

import (
	"fmt"
	"time"

	"because/internal/bgp"
	"because/internal/netsim"
	"because/internal/router"
)

// EncodeTimestamp converts a beacon event time to the 32-bit value carried
// in the aggregator attribute (Unix seconds).
func EncodeTimestamp(t time.Time) uint32 { return uint32(t.Unix()) }

// DecodeTimestamp recovers the event time from an aggregator value.
func DecodeTimestamp(v uint32) time.Time { return time.Unix(int64(v), 0).UTC() }

// Event is one scheduled beacon action.
type Event struct {
	At       time.Time
	Prefix   bgp.Prefix
	Site     bgp.ASN
	Announce bool
}

// Schedule describes the oscillation plan of one beacon prefix at one site.
type Schedule struct {
	// Site is the AS originating the prefix.
	Site bgp.ASN
	// Prefix is the beacon prefix.
	Prefix bgp.Prefix
	// UpdateInterval is the spacing between consecutive Burst updates.
	// Zero marks an anchor prefix (slow 2 h announce/withdraw cycle).
	UpdateInterval time.Duration
	// BurstLen is the duration of the Burst phase.
	BurstLen time.Duration
	// BreakLen is the duration of the Break phase.
	BreakLen time.Duration
	// Pairs is the number of Burst+Break pairs.
	Pairs int
	// Start is when the first Burst begins. An initial announcement is
	// emitted Warmup before Start so the first withdrawal has something to
	// withdraw.
	Start time.Time
	// Warmup is the lead time of the initial announcement (default 5 min).
	Warmup time.Duration
}

// AnchorPeriod is the anchor prefixes' announce/withdraw half-cycle, the
// same two hours as the RIPE Beacons.
const AnchorPeriod = 2 * time.Hour

// DefaultWarmup is the initial-announcement lead time.
const DefaultWarmup = 5 * time.Minute

// IsAnchor reports whether the schedule is an anchor (control) prefix.
func (s Schedule) IsAnchor() bool { return s.UpdateInterval == 0 }

// Validate reports configuration errors.
func (s Schedule) Validate() error {
	switch {
	case s.Site == 0:
		return fmt.Errorf("beacon: schedule has no site")
	case !s.Prefix.IsValid():
		return fmt.Errorf("beacon: invalid prefix")
	case s.Pairs < 1:
		return fmt.Errorf("beacon: need at least one Burst-Break pair, got %d", s.Pairs)
	case s.IsAnchor():
		return nil
	case s.UpdateInterval < 0:
		return fmt.Errorf("beacon: negative update interval")
	case s.BurstLen < 2*s.UpdateInterval:
		return fmt.Errorf("beacon: burst %v too short for interval %v", s.BurstLen, s.UpdateInterval)
	case s.BreakLen <= 0:
		return fmt.Errorf("beacon: break must be positive")
	}
	return nil
}

// warmup returns the effective warmup duration.
func (s Schedule) warmup() time.Duration {
	if s.Warmup > 0 {
		return s.Warmup
	}
	return DefaultWarmup
}

// PairWindow returns the Burst start, Burst end (time of the final
// announcement) and Break end for pair i (0-based). The labeling stage uses
// these windows to search for the RFD signature.
func (s Schedule) PairWindow(i int) (burstStart, burstEnd, breakEnd time.Time) {
	period := s.BurstLen + s.BreakLen
	burstStart = s.Start.Add(time.Duration(i) * period)
	burstEnd = burstStart.Add(time.Duration(s.lastBurstStep()) * s.UpdateInterval)
	breakEnd = burstStart.Add(period)
	return burstStart, burstEnd, breakEnd
}

// lastBurstStep returns the index k of the final Burst event (odd, so the
// Burst ends with an announcement).
func (s Schedule) lastBurstStep() int {
	if s.IsAnchor() {
		return 0
	}
	k := int(s.BurstLen / s.UpdateInterval)
	if k%2 == 0 {
		k--
	}
	if k < 1 {
		k = 1
	}
	return k
}

// Events expands the schedule into its full event list, in time order.
func (s Schedule) Events() ([]Event, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.IsAnchor() {
		return s.anchorEvents(), nil
	}
	var evs []Event
	// Initial announcement so the first withdrawal is meaningful.
	evs = append(evs, Event{At: s.Start.Add(-s.warmup()), Prefix: s.Prefix, Site: s.Site, Announce: true})
	last := s.lastBurstStep()
	for pair := 0; pair < s.Pairs; pair++ {
		burstStart, _, _ := s.PairWindow(pair)
		for k := 0; k <= last; k++ {
			evs = append(evs, Event{
				At:       burstStart.Add(time.Duration(k) * s.UpdateInterval),
				Prefix:   s.Prefix,
				Site:     s.Site,
				Announce: k%2 == 1, // starts with withdrawal, ends with announcement
			})
		}
	}
	return evs, nil
}

// anchorEvents produces the two-hour announce/withdraw control cycle
// covering the same total duration as the oscillating schedules.
func (s Schedule) anchorEvents() []Event {
	total := time.Duration(s.Pairs) * (s.BurstLen + s.BreakLen)
	var evs []Event
	announce := true
	for off := time.Duration(0); off < total; off += AnchorPeriod {
		evs = append(evs, Event{
			At:       s.Start.Add(off),
			Prefix:   s.Prefix,
			Site:     s.Site,
			Announce: announce,
		})
		announce = !announce
	}
	return evs
}

// Drive schedules every event of evs onto the engine, driving the network's
// origination API. Announcements carry the event time as the aggregator
// timestamp. Every event is validated before any is scheduled, so an error
// leaves the engine untouched.
func Drive(eng *netsim.Engine, net *router.Network, evs []Event) error {
	for _, ev := range evs {
		if ev.At.Before(eng.Now()) {
			return fmt.Errorf("beacon: event at %v before engine time %v", ev.At, eng.Now())
		}
		if net.Router(ev.Site) == nil {
			return fmt.Errorf("beacon: unknown site %v", ev.Site)
		}
	}
	for _, ev := range evs {
		// Errors cannot occur in the handlers: every site was validated above.
		if ev.Announce {
			eng.At(ev.At, netsim.Func(func() {
				_ = net.Originate(ev.Site, ev.Prefix, EncodeTimestamp(ev.At))
			}))
		} else {
			eng.At(ev.At, netsim.Func(func() {
				_ = net.WithdrawOrigin(ev.Site, ev.Prefix)
			}))
		}
	}
	return nil
}
