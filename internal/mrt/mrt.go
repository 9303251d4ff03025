// Package mrt implements the MRT export format (RFC 6396) used by the
// route collector projects the paper consumes (RIPE RIS, RouteViews,
// Isolario). The simulator's collectors archive BGP4MP_MESSAGE_AS4 records,
// and the labeling stage reads them back, so the full measurement path runs
// through the same byte format as a real study.
//
// Only the BGP4MP message subtypes needed by the pipeline are implemented;
// unknown record types are surfaced with their raw body so readers can skip
// them, mirroring how BGP dump tooling behaves on mixed archives.
package mrt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/netip"
	"time"

	"because/internal/bgp"
)

// MRT record types (RFC 6396 § 4).
const (
	TypeBGP4MP   = 16
	TypeBGP4MPET = 17
)

// BGP4MP subtypes (RFC 6396 § 4.4).
const (
	SubtypeStateChange    = 0
	SubtypeMessage        = 1
	SubtypeMessageAS4     = 4
	SubtypeStateChangeAS4 = 5
)

// AFI values used in BGP4MP headers.
const (
	AFIIPv4 = 1
	AFIIPv6 = 2
)

// Errors returned by the reader.
var (
	ErrTruncated   = errors.New("mrt: truncated record")
	ErrBadAFI      = errors.New("mrt: unsupported address family")
	ErrNotBGP4MP   = errors.New("mrt: record is not a BGP4MP message")
	ErrBodyTooLong = errors.New("mrt: record body exceeds sane limit")
)

// ErrTimestampRange is returned by the writers for a time that MRT's
// 32-bit Unix-seconds timestamp cannot hold: one before 1970 or after
// 2106-02-07T06:28:15Z. Nothing is written for the refused record.
var ErrTimestampRange = errors.New("mrt: timestamp outside the 32-bit Unix seconds range")

// unixSeconds returns ts as an MRT timestamp, or ErrTimestampRange.
func unixSeconds(ts time.Time) (uint32, error) {
	s := ts.Unix()
	if s < 0 || s > math.MaxUint32 {
		return 0, fmt.Errorf("%w: %v", ErrTimestampRange, ts)
	}
	return uint32(s), nil
}

// maxBody bounds record allocation when reading untrusted dumps.
const maxBody = 1 << 20

// Record is one decoded MRT record. For BGP4MP message records the BGP
// update is decoded into Update; for any other type/subtype the raw body is
// retained and Update is nil.
type Record struct {
	Timestamp time.Time
	Type      uint16
	Subtype   uint16

	// BGP4MP message fields.
	PeerAS  bgp.ASN
	LocalAS bgp.ASN
	PeerIP  netip.Addr
	LocalIP netip.Addr
	Update  *bgp.Update

	// Raw holds the undecoded body for record types the package does not
	// interpret.
	Raw []byte
}

// IsUpdate reports whether the record carries a decoded BGP UPDATE.
func (r *Record) IsUpdate() bool { return r.Update != nil }

// Writer serialises MRT records to an io.Writer. It builds each record in
// one reused buffer and hands it to the io.Writer in a single Write.
type Writer struct {
	w io.Writer
	// codec used for the embedded BGP messages (AS4 on for MESSAGE_AS4).
	codec bgp.Codec
	buf   []byte
}

// NewWriter returns a Writer emitting BGP4MP_MESSAGE_AS4 records.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, codec: bgp.Codec{AS4: true}}
}

// WriteUpdate writes one BGP4MP_MESSAGE_AS4 record containing u as received
// by the collector from peerAS at ts. A record that cannot be encoded is
// not written at all.
func (w *Writer) WriteUpdate(ts time.Time, peerAS, localAS bgp.ASN, peerIP, localIP netip.Addr, u *bgp.Update) error {
	if !peerIP.Is4() || !localIP.Is4() {
		return ErrBadAFI
	}
	secs, err := unixSeconds(ts)
	if err != nil {
		return err
	}
	rec := binary.BigEndian.AppendUint32(w.buf[:0], secs)
	rec = binary.BigEndian.AppendUint16(rec, TypeBGP4MP)
	rec = binary.BigEndian.AppendUint16(rec, SubtypeMessageAS4)
	rec = append(rec, 0, 0, 0, 0) // body length, patched below
	rec = binary.BigEndian.AppendUint32(rec, uint32(peerAS))
	rec = binary.BigEndian.AppendUint32(rec, uint32(localAS))
	rec = binary.BigEndian.AppendUint16(rec, 0) // interface index
	rec = binary.BigEndian.AppendUint16(rec, AFIIPv4)
	p4 := peerIP.As4()
	l4 := localIP.As4()
	rec = append(append(rec, p4[:]...), l4[:]...)
	if rec, err = w.codec.AppendMessage(rec, u); err != nil {
		return fmt.Errorf("mrt: encoding BGP message: %w", err)
	}
	binary.BigEndian.PutUint32(rec[8:12], uint32(len(rec)-12))
	w.buf = rec
	_, err = w.w.Write(rec)
	return err
}

// Reader decodes MRT records from an io.Reader. It reads every record
// body into one reused buffer; the decoded update copies what it keeps,
// and Raw gets its own copy, so a returned Record never aliases it.
type Reader struct {
	r    io.Reader
	body []byte
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Next reads the next record. It returns io.EOF cleanly at end of stream and
// ErrTruncated if the stream ends mid-record. Records of unknown type are
// returned with Raw set and Update nil.
func (r *Reader) Next() (*Record, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, ErrTruncated
	}
	rec := &Record{
		Timestamp: time.Unix(int64(binary.BigEndian.Uint32(hdr[0:4])), 0).UTC(),
		Type:      binary.BigEndian.Uint16(hdr[4:6]),
		Subtype:   binary.BigEndian.Uint16(hdr[6:8]),
	}
	blen := binary.BigEndian.Uint32(hdr[8:12])
	if blen > maxBody {
		return nil, ErrBodyTooLong
	}
	if uint32(cap(r.body)) < blen {
		r.body = make([]byte, blen)
	}
	body := r.body[:blen]
	if _, err := io.ReadFull(r.r, body); err != nil {
		return nil, ErrTruncated
	}
	if rec.Type != TypeBGP4MP && rec.Type != TypeBGP4MPET {
		rec.Raw = bytes.Clone(body)
		return rec, nil
	}
	if rec.Subtype != SubtypeMessage && rec.Subtype != SubtypeMessageAS4 {
		rec.Raw = bytes.Clone(body)
		return rec, nil
	}
	if err := r.decodeBGP4MP(rec, body); err != nil {
		return nil, err
	}
	return rec, nil
}

func (r *Reader) decodeBGP4MP(rec *Record, body []byte) error {
	as4 := rec.Subtype == SubtypeMessageAS4
	asLen := 2
	if as4 {
		asLen = 4
	}
	need := 2*asLen + 4
	if len(body) < need {
		return ErrTruncated
	}
	if as4 {
		rec.PeerAS = bgp.ASN(binary.BigEndian.Uint32(body[0:4]))
		rec.LocalAS = bgp.ASN(binary.BigEndian.Uint32(body[4:8]))
	} else {
		rec.PeerAS = bgp.ASN(binary.BigEndian.Uint16(body[0:2]))
		rec.LocalAS = bgp.ASN(binary.BigEndian.Uint16(body[2:4]))
	}
	afi := binary.BigEndian.Uint16(body[2*asLen+2 : 2*asLen+4])
	body = body[need:]
	var addrLen int
	switch afi {
	case AFIIPv4:
		addrLen = 4
	case AFIIPv6:
		addrLen = 16
	default:
		return fmt.Errorf("%w: AFI %d", ErrBadAFI, afi)
	}
	if len(body) < 2*addrLen {
		return ErrTruncated
	}
	if afi == AFIIPv4 {
		rec.PeerIP = netip.AddrFrom4([4]byte(body[0:4]))
		rec.LocalIP = netip.AddrFrom4([4]byte(body[4:8]))
	} else {
		rec.PeerIP = netip.AddrFrom16([16]byte(body[0:16]))
		rec.LocalIP = netip.AddrFrom16([16]byte(body[16:32]))
	}
	body = body[2*addrLen:]
	codec := bgp.Codec{AS4: as4}
	u, _, err := codec.DecodeMessage(body)
	if err != nil {
		if errors.Is(err, bgp.ErrNotUpdate) {
			// Keepalives etc. inside BGP4MP records: keep raw, no update.
			rec.Raw = bytes.Clone(body)
			return nil
		}
		return fmt.Errorf("mrt: embedded BGP message: %w", err)
	}
	rec.Update = u
	return nil
}

// ReadAll drains the reader, returning every record until EOF.
//
//lint:allow deadcode test oracle: decodes what collector.WriteMRT emits for the archive and fuzz tests
func ReadAll(r io.Reader) ([]*Record, error) {
	mr := NewReader(r)
	var out []*Record
	for {
		rec, err := mr.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}
