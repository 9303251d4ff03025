// Package bgp implements the subset of BGP-4 (RFC 4271) needed by the RFD
// Beacon measurement pipeline: the UPDATE message model, the path attributes
// that carry the measurement signal (notably AGGREGATOR, which the Beacons
// use to embed sending timestamps, exactly like the RIPE Beacons), and a
// binary wire codec so that simulated updates travel through the same byte
// format that real collectors archive.
//
// The codec supports both 2-byte and 4-byte AS number encodings (RFC 6793);
// the experiment harness always negotiates 4-byte ASNs, but the 2-byte path
// is kept and tested because public MRT archives contain both.
package bgp

import (
	"fmt"
	"net/netip"
)

// ASN is an autonomous system number. The simulator uses 32-bit ASNs
// throughout (RFC 6793).
type ASN uint32

// String formats the ASN in the canonical "AS64500" form.
func (a ASN) String() string { return fmt.Sprintf("AS%d", uint32(a)) }

// ASTrans is the reserved 2-octet placeholder (AS 23456) substituted for
// 4-byte ASNs when speaking to a 2-byte-only peer (RFC 6793).
const ASTrans ASN = 23456

// Prefix is an IP prefix announced or withdrawn in an UPDATE.
type Prefix = netip.Prefix

// MustPrefix parses s as a prefix and panics on error; for tests and
// fixtures.
func MustPrefix(s string) Prefix { return netip.MustParsePrefix(s) }

// PrefixLess is a total order over prefixes (address, then length) for
// deterministic iteration wherever prefixes are collected from a map.
func PrefixLess(a, b Prefix) bool {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c < 0
	}
	return a.Bits() < b.Bits()
}

// MessageType identifies the BGP message kind in the common header.
type MessageType uint8

// BGP message types (RFC 4271 § 4.1).
const (
	MsgOpen         MessageType = 1
	MsgUpdate       MessageType = 2
	MsgNotification MessageType = 3
	MsgKeepalive    MessageType = 4
)

// String returns the RFC name of the message type.
func (t MessageType) String() string {
	switch t {
	case MsgOpen:
		return "OPEN"
	case MsgUpdate:
		return "UPDATE"
	case MsgNotification:
		return "NOTIFICATION"
	case MsgKeepalive:
		return "KEEPALIVE"
	default:
		return fmt.Sprintf("TYPE(%d)", uint8(t))
	}
}

// Origin is the ORIGIN path attribute value.
type Origin uint8

// ORIGIN values (RFC 4271 § 5.1.1).
const (
	OriginIGP        Origin = 0
	OriginEGP        Origin = 1
	OriginIncomplete Origin = 2
)

// String returns the conventional ORIGIN letter.
func (o Origin) String() string {
	switch o {
	case OriginIGP:
		return "IGP"
	case OriginEGP:
		return "EGP"
	case OriginIncomplete:
		return "INCOMPLETE"
	default:
		return fmt.Sprintf("ORIGIN(%d)", uint8(o))
	}
}

// AttrType identifies a path attribute.
type AttrType uint8

// Path attribute type codes used by the pipeline.
const (
	AttrOrigin          AttrType = 1
	AttrASPath          AttrType = 2
	AttrNextHop         AttrType = 3
	AttrMED             AttrType = 4
	AttrLocalPref       AttrType = 5
	AttrAtomicAggregate AttrType = 6
	AttrAggregator      AttrType = 7
	AttrCommunities     AttrType = 8
	AttrAS4Path         AttrType = 17
	AttrAS4Aggregator   AttrType = 18
)

// Attribute flag bits (RFC 4271 § 4.3).
const (
	flagOptional   = 0x80
	flagTransitive = 0x40
	flagPartial    = 0x20
	flagExtLen     = 0x10
)

// Community is a 32-bit BGP community value (RFC 1997).
type Community uint32

// String renders the community in the usual "asn:value" notation.
func (c Community) String() string { return fmt.Sprintf("%d:%d", uint32(c)>>16, uint32(c)&0xffff) }

// MakeCommunity composes the "asn:value" community encoding.
func MakeCommunity(asn uint16, value uint16) Community {
	return Community(uint32(asn)<<16 | uint32(value))
}

// Aggregator is the AGGREGATOR path attribute: the AS and router-id of the
// speaker that formed an aggregate. The RFD Beacons repurpose the 4-byte
// router-id field to carry the Unix timestamp of the beacon event, the same
// trick used by the RIPE routing beacons, making the sending time visible at
// every vantage point through a transitive attribute.
type Aggregator struct {
	AS ASN
	// ID is the 4-byte aggregator "IP address" field. For beacon prefixes it
	// holds the event's Unix timestamp (seconds).
	ID uint32
}

// Update is a decoded BGP UPDATE message. A message may withdraw routes,
// announce NLRI with a shared set of attributes, or both.
type Update struct {
	Withdrawn []Prefix

	// Attributes (present only if NLRI is non-empty or explicitly set).
	Origin      Origin
	ASPath      Path
	NextHop     netip.Addr
	MED         uint32
	HasMED      bool
	LocalPref   uint32
	HasLocal    bool
	AtomicAgg   bool
	Aggregator  *Aggregator
	Communities []Community

	NLRI []Prefix
}

// IsWithdrawalOnly reports whether the update carries withdrawals and no
// announcements.
func (u *Update) IsWithdrawalOnly() bool { return len(u.NLRI) == 0 && len(u.Withdrawn) > 0 }

// String gives a compact human-readable rendering for logs and the
// mrtinspect example.
func (u *Update) String() string {
	switch {
	case len(u.NLRI) > 0 && len(u.Withdrawn) > 0:
		return fmt.Sprintf("UPDATE announce=%v withdraw=%v path=%v", u.NLRI, u.Withdrawn, u.ASPath)
	case len(u.NLRI) > 0:
		return fmt.Sprintf("UPDATE announce=%v path=%v", u.NLRI, u.ASPath)
	case len(u.Withdrawn) > 0:
		return fmt.Sprintf("UPDATE withdraw=%v", u.Withdrawn)
	default:
		return "UPDATE (empty)"
	}
}
