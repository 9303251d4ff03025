package mrt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"time"

	"because/internal/bgp"
)

// TABLE_DUMP_V2 record type and subtypes (RFC 6396 § 4.3). Real collector
// archives pair the per-update BGP4MP files with periodic RIB snapshots in
// this format; the simulator's collectors can produce both.
const (
	TypeTableDumpV2 = 13

	SubtypePeerIndexTable = 1
	SubtypeRIBIPv4Unicast = 2
)

// Peer-type flag bits in the PEER_INDEX_TABLE.
const (
	peerFlagIPv6 = 0x01
	peerFlagAS4  = 0x02
)

// ErrNoPeerIndex is returned when a RIB record arrives before the
// PEER_INDEX_TABLE that defines its peer indices, or after one that lists
// no peers.
var ErrNoPeerIndex = errors.New("mrt: RIB record before PEER_INDEX_TABLE")

// Peer is one entry of the PEER_INDEX_TABLE.
type Peer struct {
	BGPID netip.Addr
	Addr  netip.Addr
	AS    bgp.ASN
}

// RIBEntry is one peer's route for a prefix in a RIB snapshot.
type RIBEntry struct {
	Peer Peer
	// OriginatedAt is when the route was received.
	OriginatedAt time.Time
	// Attrs carries the path attributes (ASPath, Aggregator, ...; the
	// NLRI field is unused — the prefix lives on the RIB record).
	Attrs *bgp.Update
}

// RIBRecord is one prefix's RIB snapshot row.
type RIBRecord struct {
	Sequence uint32
	Prefix   bgp.Prefix
	Entries  []RIBEntry
}

// RIBWriter emits a TABLE_DUMP_V2 snapshot: one PEER_INDEX_TABLE followed
// by RIB_IPV4_UNICAST records.
type RIBWriter struct {
	w     io.Writer
	codec bgp.Codec
	peers []Peer
	index map[string]uint16
	seq   uint32
	// wroteIndex guards the "peer table first" ordering.
	wroteIndex bool
	// secs is the snapshot timestamp every record carries.
	secs uint32
}

// NewRIBWriter prepares a snapshot writer with the given peer table; the
// snapshot timestamp ts is stamped on every record, so one outside MRT's
// range is ErrTimestampRange. Peer order defines the peer indices.
func NewRIBWriter(w io.Writer, ts time.Time, peers []Peer) (*RIBWriter, error) {
	secs, err := unixSeconds(ts)
	if err != nil {
		return nil, err
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("mrt: RIB snapshot needs at least one peer")
	}
	if len(peers) > 0xffff {
		return nil, fmt.Errorf("mrt: too many peers (%d)", len(peers))
	}
	rw := &RIBWriter{
		w:     w,
		codec: bgp.Codec{AS4: true},
		peers: peers,
		index: make(map[string]uint16, len(peers)),
		secs:  secs,
	}
	for i, p := range peers {
		if !p.Addr.Is4() {
			return nil, fmt.Errorf("mrt: peer %d address %v is not IPv4", i, p.Addr)
		}
		rw.index[p.Addr.String()] = uint16(i)
	}
	return rw, nil
}

func (rw *RIBWriter) writeRecord(subtype uint16, body []byte) error {
	hdr := make([]byte, 0, 12)
	hdr = binary.BigEndian.AppendUint32(hdr, rw.secs)
	hdr = binary.BigEndian.AppendUint16(hdr, TypeTableDumpV2)
	hdr = binary.BigEndian.AppendUint16(hdr, subtype)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(body)))
	if _, err := rw.w.Write(hdr); err != nil {
		return err
	}
	_, err := rw.w.Write(body)
	return err
}

// writePeerIndex emits the PEER_INDEX_TABLE record.
func (rw *RIBWriter) writePeerIndex() error {
	body := make([]byte, 0, 8+16*len(rw.peers))
	body = append(body, 192, 0, 2, 10)            // collector BGP ID
	body = binary.BigEndian.AppendUint16(body, 0) // view name length (unnamed)
	body = binary.BigEndian.AppendUint16(body, uint16(len(rw.peers)))
	for _, p := range rw.peers {
		body = append(body, peerFlagAS4) // IPv4 peer, 4-byte AS
		id := p.BGPID
		if !id.Is4() {
			id = p.Addr
		}
		id4 := id.As4()
		body = append(body, id4[:]...)
		a4 := p.Addr.As4()
		body = append(body, a4[:]...)
		body = binary.BigEndian.AppendUint32(body, uint32(p.AS))
	}
	rw.wroteIndex = true
	return rw.writeRecord(SubtypePeerIndexTable, body)
}

// WritePrefix emits one RIB_IPV4_UNICAST record: the routes every peer
// currently holds for prefix. Entries whose peer is not in the table, and
// entries whose OriginatedAt is outside MRT's range (ErrTimestampRange),
// are an error, and a refused record writes nothing. The PEER_INDEX_TABLE
// is emitted automatically before the first prefix.
func (rw *RIBWriter) WritePrefix(prefix bgp.Prefix, entries []RIBEntry) error {
	if !prefix.Addr().Is4() {
		return fmt.Errorf("mrt: prefix %v is not IPv4", prefix)
	}
	if len(entries) > 0xffff {
		return fmt.Errorf("mrt: too many RIB entries (%d)", len(entries))
	}
	body := make([]byte, 0, 16)
	body = binary.BigEndian.AppendUint32(body, rw.seq)
	bits := prefix.Bits()
	body = append(body, byte(bits))
	a4 := prefix.Masked().Addr().As4()
	body = append(body, a4[:(bits+7)/8]...)
	body = binary.BigEndian.AppendUint16(body, uint16(len(entries)))
	for _, e := range entries {
		idx, ok := rw.index[e.Peer.Addr.String()]
		if !ok {
			return fmt.Errorf("mrt: RIB entry peer %v not in peer table", e.Peer.Addr)
		}
		originated, err := unixSeconds(e.OriginatedAt)
		if err != nil {
			return err
		}
		attrs, err := rw.codec.EncodeAttributes(e.Attrs)
		if err != nil {
			return fmt.Errorf("mrt: encoding RIB attributes: %w", err)
		}
		body = binary.BigEndian.AppendUint16(body, idx)
		body = binary.BigEndian.AppendUint32(body, originated)
		body = binary.BigEndian.AppendUint16(body, uint16(len(attrs)))
		body = append(body, attrs...)
	}
	if !rw.wroteIndex {
		if err := rw.writePeerIndex(); err != nil {
			return err
		}
	}
	rw.seq++
	return rw.writeRecord(SubtypeRIBIPv4Unicast, body)
}

// RIBReader decodes a TABLE_DUMP_V2 snapshot stream.
type RIBReader struct {
	r     *Reader
	codec bgp.Codec
	peers []Peer
}

// NewRIBReader returns a snapshot reader over r.
//
//lint:allow deadcode test oracle: decodes what collector.WriteRIB emits for the snapshot and fuzz tests
func NewRIBReader(r io.Reader) *RIBReader {
	return &RIBReader{r: NewReader(r), codec: bgp.Codec{AS4: true}}
}

// Next returns the next RIB record, decoding the peer table transparently.
// It returns io.EOF at end of stream. Non-TABLE_DUMP_V2 records in the
// stream are skipped.
//
//lint:allow deadcode test oracle: see NewRIBReader
func (rr *RIBReader) Next() (*RIBRecord, error) {
	for {
		rec, err := rr.r.Next()
		if err != nil {
			return nil, err
		}
		if rec.Type != TypeTableDumpV2 {
			continue
		}
		switch rec.Subtype {
		case SubtypePeerIndexTable:
			if err := rr.decodePeerIndex(rec.Raw); err != nil {
				return nil, err
			}
		case SubtypeRIBIPv4Unicast:
			if len(rr.peers) == 0 {
				return nil, ErrNoPeerIndex
			}
			return rr.decodeRIB(rec.Raw)
		default:
			// Other subtypes (IPv6, multicast) are skipped.
		}
	}
}

func (rr *RIBReader) decodePeerIndex(body []byte) error {
	if len(body) < 8 {
		return ErrTruncated
	}
	viewLen := int(binary.BigEndian.Uint16(body[4:6]))
	if len(body) < 8+viewLen {
		return ErrTruncated
	}
	body = body[6+viewLen:]
	count := int(binary.BigEndian.Uint16(body[:2]))
	body = body[2:]
	peers := make([]Peer, 0, count)
	for i := 0; i < count; i++ {
		if len(body) < 1 {
			return ErrTruncated
		}
		flags := body[0]
		body = body[1:]
		addrLen := 4
		if flags&peerFlagIPv6 != 0 {
			addrLen = 16
		}
		asLen := 2
		if flags&peerFlagAS4 != 0 {
			asLen = 4
		}
		need := 4 + addrLen + asLen
		if len(body) < need {
			return ErrTruncated
		}
		var p Peer
		p.BGPID = netip.AddrFrom4([4]byte(body[0:4]))
		if addrLen == 4 {
			p.Addr = netip.AddrFrom4([4]byte(body[4:8]))
		} else {
			p.Addr = netip.AddrFrom16([16]byte(body[4:20]))
		}
		if asLen == 4 {
			p.AS = bgp.ASN(binary.BigEndian.Uint32(body[4+addrLen : 8+addrLen]))
		} else {
			p.AS = bgp.ASN(binary.BigEndian.Uint16(body[4+addrLen : 6+addrLen]))
		}
		body = body[need:]
		peers = append(peers, p)
	}
	rr.peers = peers
	return nil
}

func (rr *RIBReader) decodeRIB(body []byte) (*RIBRecord, error) {
	if len(body) < 5 {
		return nil, ErrTruncated
	}
	rec := &RIBRecord{Sequence: binary.BigEndian.Uint32(body[:4])}
	bits := int(body[4])
	if bits > 32 {
		return nil, fmt.Errorf("mrt: RIB prefix length %d", bits)
	}
	nb := (bits + 7) / 8
	if len(body) < 5+nb+2 {
		return nil, ErrTruncated
	}
	var a4 [4]byte
	copy(a4[:], body[5:5+nb])
	prefix, err := netip.AddrFrom4(a4).Prefix(bits)
	if err != nil {
		return nil, fmt.Errorf("mrt: RIB prefix: %w", err)
	}
	rec.Prefix = prefix
	body = body[5+nb:]
	count := int(binary.BigEndian.Uint16(body[:2]))
	body = body[2:]
	for i := 0; i < count; i++ {
		if len(body) < 8 {
			return nil, ErrTruncated
		}
		idx := int(binary.BigEndian.Uint16(body[:2]))
		if idx >= len(rr.peers) {
			return nil, fmt.Errorf("mrt: RIB entry peer index %d out of range", idx)
		}
		orig := time.Unix(int64(binary.BigEndian.Uint32(body[2:6])), 0).UTC()
		alen := int(binary.BigEndian.Uint16(body[6:8]))
		if len(body) < 8+alen {
			return nil, ErrTruncated
		}
		attrs := &bgp.Update{}
		if err := rr.codec.DecodeAttributes(body[8:8+alen], attrs); err != nil {
			return nil, fmt.Errorf("mrt: RIB entry attributes: %w", err)
		}
		rec.Entries = append(rec.Entries, RIBEntry{
			Peer:         rr.peers[idx],
			OriginatedAt: orig,
			Attrs:        attrs,
		})
		body = body[8+alen:]
	}
	return rec, nil
}
