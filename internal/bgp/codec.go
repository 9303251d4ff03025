package bgp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// Codec encodes and decodes BGP UPDATE messages to and from the RFC 4271
// wire format. The zero value encodes 2-octet AS numbers; set AS4 for the
// RFC 6793 4-octet encoding (what modern sessions negotiate and what the
// simulator's collectors archive).
type Codec struct {
	// AS4 selects 4-octet AS number encoding in AS_PATH and AGGREGATOR.
	AS4 bool
}

// Wire format constants (RFC 4271 § 4.1).
const (
	// HeaderLen is the fixed BGP message header size.
	HeaderLen = 19
	// MaxMessageLen is the largest legal BGP message.
	MaxMessageLen = 4096
)

// Codec and message errors.
var (
	ErrShortMessage   = errors.New("bgp: message truncated")
	ErrBadMarker      = errors.New("bgp: header marker is not all-ones")
	ErrBadLength      = errors.New("bgp: header length field invalid")
	ErrNotUpdate      = errors.New("bgp: message is not an UPDATE")
	ErrAttrMalformed  = errors.New("bgp: malformed path attribute")
	ErrBadPrefix      = errors.New("bgp: malformed NLRI prefix")
	ErrMessageTooLong = errors.New("bgp: message exceeds 4096 bytes")
)

// EncodeMessage serialises u as a complete BGP message (header + UPDATE
// body).
func (c Codec) EncodeMessage(u *Update) ([]byte, error) { return c.AppendMessage(nil, u) }

// AppendMessage appends u, serialised as a complete BGP message (header +
// UPDATE body), to dst and returns the extended slice. Into a buffer with
// enough capacity it allocates nothing. On error it returns dst unextended;
// dst[:len(dst)] is never modified either way.
func (c Codec) AppendMessage(dst []byte, u *Update) ([]byte, error) {
	start := len(dst)
	out := dst
	for i := 0; i < 16; i++ {
		out = append(out, 0xff)
	}
	out = append(out, 0, 0, byte(MsgUpdate)) // length patched below

	// Withdrawn routes, then the attribute block, each behind a 2-byte
	// length patched once its contents are appended.
	lenAt := len(out)
	out, err := appendPrefixes(append(out, 0, 0), u.Withdrawn)
	if err != nil {
		return dst, err
	}
	binary.BigEndian.PutUint16(out[lenAt:], uint16(len(out)-lenAt-2))
	lenAt = len(out)
	out = append(out, 0, 0)
	if len(u.NLRI) > 0 {
		if out, err = c.appendAttrs(out, u); err != nil {
			return dst, err
		}
	}
	binary.BigEndian.PutUint16(out[lenAt:], uint16(len(out)-lenAt-2))
	if out, err = appendPrefixes(out, u.NLRI); err != nil {
		return dst, err
	}

	total := len(out) - start
	if total > MaxMessageLen {
		return dst, ErrMessageTooLong
	}
	binary.BigEndian.PutUint16(out[start+16:], uint16(total))
	return out, nil
}

// appendAttrHeader appends the flags, type and length of an attribute whose
// value is n bytes long, switching to the extended length form past 255.
func appendAttrHeader(out []byte, flags byte, typ AttrType, n int) []byte {
	if n > 255 {
		return binary.BigEndian.AppendUint16(append(out, flags|flagExtLen, byte(typ)), uint16(n))
	}
	return append(out, flags, byte(typ), byte(n))
}

// appendAttrs appends u's path attribute block to out.
func (c Codec) appendAttrs(out []byte, u *Update) ([]byte, error) {
	// ORIGIN (well-known mandatory).
	out = append(appendAttrHeader(out, flagTransitive, AttrOrigin, 1), byte(u.Origin))

	// AS_PATH (well-known mandatory).
	asnLen := 2
	if c.AS4 {
		asnLen = 4
	}
	pathLen := 0
	for _, s := range u.ASPath.Segments {
		if len(s.ASNs) > 255 {
			return out, fmt.Errorf("bgp: AS_PATH segment with %d ASNs exceeds 255", len(s.ASNs))
		}
		if len(s.ASNs) > 0 {
			pathLen += 2 + asnLen*len(s.ASNs)
		}
	}
	out = appendAttrHeader(out, flagTransitive, AttrASPath, pathLen)
	for _, s := range u.ASPath.Segments {
		if len(s.ASNs) == 0 {
			continue
		}
		out = append(out, byte(s.Type), byte(len(s.ASNs)))
		for _, a := range s.ASNs {
			out = c.appendASN(out, a)
		}
	}

	// NEXT_HOP (well-known mandatory for IPv4 unicast).
	nh := u.NextHop
	if !nh.IsValid() {
		nh = netip.AddrFrom4([4]byte{0, 0, 0, 0})
	}
	if !nh.Is4() {
		return out, fmt.Errorf("bgp: NEXT_HOP %v is not IPv4", nh)
	}
	b4 := nh.As4()
	out = append(appendAttrHeader(out, flagTransitive, AttrNextHop, 4), b4[:]...)

	if u.HasMED {
		out = binary.BigEndian.AppendUint32(appendAttrHeader(out, flagOptional, AttrMED, 4), u.MED)
	}
	if u.HasLocal {
		out = binary.BigEndian.AppendUint32(appendAttrHeader(out, flagTransitive, AttrLocalPref, 4), u.LocalPref)
	}
	if u.AtomicAgg {
		out = appendAttrHeader(out, flagTransitive, AttrAtomicAggregate, 0)
	}
	if u.Aggregator != nil {
		out = appendAttrHeader(out, flagOptional|flagTransitive, AttrAggregator, asnLen+4)
		out = binary.BigEndian.AppendUint32(c.appendASN(out, u.Aggregator.AS), u.Aggregator.ID)
	}
	if len(u.Communities) > 0 {
		out = appendAttrHeader(out, flagOptional|flagTransitive, AttrCommunities, 4*len(u.Communities))
		for _, cm := range u.Communities {
			out = binary.BigEndian.AppendUint32(out, uint32(cm))
		}
	}
	return out, nil
}

// appendASN appends a in the codec's AS number width; a 4-octet ASN
// becomes AS_TRANS on the 2-octet encoding.
func (c Codec) appendASN(out []byte, a ASN) []byte {
	if c.AS4 {
		return binary.BigEndian.AppendUint32(out, uint32(a))
	}
	if a > 0xffff {
		a = ASTrans
	}
	return binary.BigEndian.AppendUint16(out, uint16(a))
}

// appendPrefixes appends the NLRI encoding of ps to out.
func appendPrefixes(out []byte, ps []Prefix) ([]byte, error) {
	for _, p := range ps {
		if !p.Addr().Is4() {
			return out, fmt.Errorf("bgp: prefix %v is not IPv4", p)
		}
		bits := p.Bits()
		if bits < 0 || bits > 32 {
			return out, fmt.Errorf("%w: %v", ErrBadPrefix, p)
		}
		a4 := p.Masked().Addr().As4()
		out = append(append(out, byte(bits)), a4[:(bits+7)/8]...)
	}
	return out, nil
}

// DecodeMessage parses one complete BGP message from data and returns the
// decoded UPDATE together with the number of bytes consumed. Non-UPDATE
// messages yield ErrNotUpdate (with the consumed length still reported so a
// stream reader can skip them).
func (c Codec) DecodeMessage(data []byte) (*Update, int, error) {
	if len(data) < HeaderLen {
		return nil, 0, ErrShortMessage
	}
	for i := 0; i < 16; i++ {
		if data[i] != 0xff {
			return nil, 0, ErrBadMarker
		}
	}
	total := int(binary.BigEndian.Uint16(data[16:18]))
	if total < HeaderLen || total > MaxMessageLen {
		return nil, 0, ErrBadLength
	}
	if len(data) < total {
		return nil, 0, ErrShortMessage
	}
	if MessageType(data[18]) != MsgUpdate {
		return nil, total, ErrNotUpdate
	}
	u, err := c.decodeBody(data[HeaderLen:total])
	if err != nil {
		return nil, total, err
	}
	return u, total, nil
}

func (c Codec) decodeBody(body []byte) (*Update, error) {
	if len(body) < 2 {
		return nil, ErrShortMessage
	}
	wlen := int(binary.BigEndian.Uint16(body[:2]))
	rest := body[2:]
	if len(rest) < wlen {
		return nil, ErrShortMessage
	}
	withdrawn, err := decodePrefixes(rest[:wlen])
	if err != nil {
		return nil, err
	}
	rest = rest[wlen:]
	if len(rest) < 2 {
		return nil, ErrShortMessage
	}
	alen := int(binary.BigEndian.Uint16(rest[:2]))
	rest = rest[2:]
	if len(rest) < alen {
		return nil, ErrShortMessage
	}
	u := &Update{Withdrawn: withdrawn}
	if err := c.decodeAttrs(rest[:alen], u); err != nil {
		return nil, err
	}
	nlri, err := decodePrefixes(rest[alen:])
	if err != nil {
		return nil, err
	}
	u.NLRI = nlri
	return u, nil
}

// EncodeAttributes serialises u's path attribute block alone (no header,
// no NLRI) — the payload format of TABLE_DUMP_V2 RIB entries.
func (c Codec) EncodeAttributes(u *Update) ([]byte, error) {
	attrs, err := c.appendAttrs(nil, u)
	if err != nil {
		return nil, err
	}
	return attrs, nil
}

// DecodeAttributes parses a bare path attribute block into u.
func (c Codec) DecodeAttributes(data []byte, u *Update) error { return c.decodeAttrs(data, u) }

func (c Codec) decodeAttrs(data []byte, u *Update) error {
	for len(data) > 0 {
		if len(data) < 3 {
			return ErrAttrMalformed
		}
		flags := data[0]
		typ := AttrType(data[1])
		var alen, hdr int
		if flags&flagExtLen != 0 {
			if len(data) < 4 {
				return ErrAttrMalformed
			}
			alen = int(binary.BigEndian.Uint16(data[2:4]))
			hdr = 4
		} else {
			alen = int(data[2])
			hdr = 3
		}
		if len(data) < hdr+alen {
			return ErrAttrMalformed
		}
		val := data[hdr : hdr+alen]
		if err := c.decodeAttr(typ, val, u); err != nil {
			return err
		}
		data = data[hdr+alen:]
	}
	return nil
}

func (c Codec) decodeAttr(typ AttrType, val []byte, u *Update) error {
	switch typ {
	case AttrOrigin:
		if len(val) != 1 {
			return fmt.Errorf("%w: ORIGIN length %d", ErrAttrMalformed, len(val))
		}
		u.Origin = Origin(val[0])
	case AttrASPath:
		p, err := c.decodePath(val)
		if err != nil {
			return err
		}
		u.ASPath = p
	case AttrNextHop:
		if len(val) != 4 {
			return fmt.Errorf("%w: NEXT_HOP length %d", ErrAttrMalformed, len(val))
		}
		u.NextHop = netip.AddrFrom4([4]byte(val))
	case AttrMED:
		if len(val) != 4 {
			return fmt.Errorf("%w: MED length %d", ErrAttrMalformed, len(val))
		}
		u.MED = binary.BigEndian.Uint32(val)
		u.HasMED = true
	case AttrLocalPref:
		if len(val) != 4 {
			return fmt.Errorf("%w: LOCAL_PREF length %d", ErrAttrMalformed, len(val))
		}
		u.LocalPref = binary.BigEndian.Uint32(val)
		u.HasLocal = true
	case AttrAtomicAggregate:
		if len(val) != 0 {
			return fmt.Errorf("%w: ATOMIC_AGGREGATE length %d", ErrAttrMalformed, len(val))
		}
		u.AtomicAgg = true
	case AttrAggregator:
		want := 6
		if c.AS4 {
			want = 8
		}
		if len(val) != want {
			return fmt.Errorf("%w: AGGREGATOR length %d (AS4=%v)", ErrAttrMalformed, len(val), c.AS4)
		}
		agg := &Aggregator{}
		if c.AS4 {
			agg.AS = ASN(binary.BigEndian.Uint32(val[:4]))
			agg.ID = binary.BigEndian.Uint32(val[4:8])
		} else {
			agg.AS = ASN(binary.BigEndian.Uint16(val[:2]))
			agg.ID = binary.BigEndian.Uint32(val[2:6])
		}
		u.Aggregator = agg
	case AttrCommunities:
		if len(val)%4 != 0 {
			return fmt.Errorf("%w: COMMUNITIES length %d", ErrAttrMalformed, len(val))
		}
		for i := 0; i < len(val); i += 4 {
			u.Communities = append(u.Communities, Community(binary.BigEndian.Uint32(val[i:i+4])))
		}
	default:
		// Unknown optional attributes are ignored; the pipeline only needs
		// the ones above.
	}
	return nil
}

func (c Codec) decodePath(val []byte) (Path, error) {
	var p Path
	asnSize := 2
	if c.AS4 {
		asnSize = 4
	}
	for len(val) > 0 {
		if len(val) < 2 {
			return Path{}, fmt.Errorf("%w: AS_PATH segment header", ErrAttrMalformed)
		}
		st := SegmentType(val[0])
		if st != SegSet && st != SegSequence {
			return Path{}, fmt.Errorf("%w: AS_PATH segment type %d", ErrAttrMalformed, st)
		}
		n := int(val[1])
		need := 2 + n*asnSize
		if len(val) < need {
			return Path{}, fmt.Errorf("%w: AS_PATH segment truncated", ErrAttrMalformed)
		}
		seg := Segment{Type: st, ASNs: make([]ASN, n)}
		for i := 0; i < n; i++ {
			off := 2 + i*asnSize
			if c.AS4 {
				seg.ASNs[i] = ASN(binary.BigEndian.Uint32(val[off : off+4]))
			} else {
				seg.ASNs[i] = ASN(binary.BigEndian.Uint16(val[off : off+2]))
			}
		}
		p.Segments = append(p.Segments, seg)
		val = val[need:]
	}
	return p, nil
}

func decodePrefixes(data []byte) ([]Prefix, error) {
	var out []Prefix
	for len(data) > 0 {
		bits := int(data[0])
		if bits > 32 {
			return nil, fmt.Errorf("%w: length %d", ErrBadPrefix, bits)
		}
		nb := (bits + 7) / 8
		if len(data) < 1+nb {
			return nil, fmt.Errorf("%w: truncated", ErrBadPrefix)
		}
		var a4 [4]byte
		copy(a4[:], data[1:1+nb])
		p, err := netip.AddrFrom4(a4).Prefix(bits)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadPrefix, err)
		}
		out = append(out, p)
		data = data[1+nb:]
	}
	return out, nil
}
