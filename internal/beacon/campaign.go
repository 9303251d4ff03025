package beacon

import (
	"fmt"
	"net/netip"
	"time"

	"because/internal/bgp"
)

// Site is one beacon deployment location: an origin AS and its prefix
// block. Each site announces one anchor prefix and one oscillating prefix
// per campaign interval, mirroring the paper's 7 sites x 4 prefixes.
type Site struct {
	// Name is a human-readable location label ("eu-1", "us-1", ...).
	Name string
	// ASN is the origin AS of this site's prefixes.
	ASN bgp.ASN
	// Index is the site's ordinal, used to derive its prefix block.
	Index int
}

// SitePrefix returns the j-th /24 of site i: 10.(i+1).(j).0/24. Index 0 is
// the anchor prefix; 1..n are the oscillating prefixes.
func SitePrefix(siteIndex, j int) bgp.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(siteIndex + 1), byte(j), 0}), 24)
}

// AnchorPrefix returns site i's anchor prefix.
func (s Site) AnchorPrefix() bgp.Prefix { return SitePrefix(s.Index, 0) }

// OscillatingPrefix returns site i's j-th oscillating prefix (j >= 1).
func (s Site) OscillatingPrefix(j int) bgp.Prefix { return SitePrefix(s.Index, j) }

// Campaign is a measurement campaign: a set of update intervals announced
// simultaneously from every site with common Burst/Break phasing.
type Campaign struct {
	Name string
	// Intervals are the oscillating prefixes' update intervals; each site
	// announces one prefix per interval.
	Intervals []time.Duration
	// BurstLen and BreakLen are the phase durations.
	BurstLen, BreakLen time.Duration
	// Pairs is the number of Burst-Break pairs to run.
	Pairs int
}

// Validate reports configuration errors.
func (c Campaign) Validate() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("beacon: campaign without name")
	case len(c.Intervals) == 0:
		return fmt.Errorf("beacon: campaign without intervals")
	case c.Pairs < 1:
		return fmt.Errorf("beacon: campaign needs at least one pair")
	}
	for _, iv := range c.Intervals {
		if iv <= 0 {
			return fmt.Errorf("beacon: non-positive interval %v", iv)
		}
		if c.BurstLen < 2*iv {
			return fmt.Errorf("beacon: burst %v too short for interval %v", c.BurstLen, iv)
		}
	}
	return nil
}

// Schedules expands the campaign into per-prefix schedules for the given
// sites, starting at start: one anchor plus one oscillating prefix per
// interval per site.
func (c Campaign) Schedules(sites []Site, start time.Time) ([]Schedule, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	var out []Schedule
	for _, site := range sites {
		out = append(out, Schedule{
			Site:     site.ASN,
			Prefix:   site.AnchorPrefix(),
			BurstLen: c.BurstLen,
			BreakLen: c.BreakLen,
			Pairs:    c.Pairs,
			Start:    start,
		})
		for j, iv := range c.Intervals {
			out = append(out, Schedule{
				Site:           site.ASN,
				Prefix:         site.OscillatingPrefix(j + 1),
				UpdateInterval: iv,
				BurstLen:       c.BurstLen,
				BreakLen:       c.BreakLen,
				Pairs:          c.Pairs,
				Start:          start,
			})
		}
	}
	return out, nil
}

// Duration returns the campaign's total virtual running time from start
// (warmup plus all pairs).
func (c Campaign) Duration() time.Duration {
	return DefaultWarmup + time.Duration(c.Pairs)*(c.BurstLen+c.BreakLen)
}
