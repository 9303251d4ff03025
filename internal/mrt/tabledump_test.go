package mrt

import (
	"bytes"
	"errors"
	"io"
	"net/netip"
	"testing"
	"time"

	"because/internal/bgp"
)

func ribPeers() []Peer {
	return []Peer{
		{BGPID: netip.MustParseAddr("10.0.0.1"), Addr: netip.MustParseAddr("10.0.0.1"), AS: 64500},
		{BGPID: netip.MustParseAddr("10.0.0.2"), Addr: netip.MustParseAddr("10.0.0.2"), AS: 4200000000},
	}
}

// seqPath builds a single-sequence path from the given ASNs (origin last).
func seqPath(asns ...bgp.ASN) bgp.Path {
	return bgp.Path{Segments: []bgp.Segment{{Type: bgp.SegSequence, ASNs: asns}}}
}

func ribAttrs(path ...bgp.ASN) *bgp.Update {
	return &bgp.Update{
		Origin:     bgp.OriginIGP,
		ASPath:     seqPath(path...),
		NextHop:    netip.MustParseAddr("192.0.2.1"),
		Aggregator: &bgp.Aggregator{AS: path[len(path)-1], ID: 1583020800},
	}
}

func TestRIBRoundTrip(t *testing.T) {
	peers := ribPeers()
	ts := time.Date(2020, 3, 1, 12, 0, 0, 0, time.UTC)
	var buf bytes.Buffer
	w, err := NewRIBWriter(&buf, ts, peers)
	if err != nil {
		t.Fatal(err)
	}
	prefixes := []bgp.Prefix{bgp.MustPrefix("10.1.1.0/24"), bgp.MustPrefix("10.2.0.0/16")}
	for _, p := range prefixes {
		entries := []RIBEntry{
			{Peer: peers[0], OriginatedAt: ts.Add(-time.Hour), Attrs: ribAttrs(64500, 3356, 65010)},
			{Peer: peers[1], OriginatedAt: ts.Add(-2 * time.Hour), Attrs: ribAttrs(4200000000, 65010)},
		}
		if err := w.WritePrefix(p, entries); err != nil {
			t.Fatal(err)
		}
	}

	r := NewRIBReader(&buf)
	var recs []*RIBRecord
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	if got := r.peers; len(got) != 2 || got[1].AS != 4200000000 {
		t.Fatalf("peer table = %+v", got)
	}
	for i, rec := range recs {
		if rec.Prefix != prefixes[i] {
			t.Errorf("record %d prefix = %v", i, rec.Prefix)
		}
		if rec.Sequence != uint32(i) {
			t.Errorf("record %d sequence = %d", i, rec.Sequence)
		}
		if len(rec.Entries) != 2 {
			t.Fatalf("record %d entries = %d", i, len(rec.Entries))
		}
		e0 := rec.Entries[0]
		if e0.Peer.AS != 64500 {
			t.Errorf("entry peer = %v", e0.Peer.AS)
		}
		if !e0.OriginatedAt.Equal(ts.Add(-time.Hour)) {
			t.Errorf("originated = %v", e0.OriginatedAt)
		}
		if got := bgp.PathKey(e0.Attrs.ASPath.Clean()); got != "64500 3356 65010" {
			t.Errorf("entry path = %q", got)
		}
		if e0.Attrs.Aggregator == nil || e0.Attrs.Aggregator.ID != 1583020800 {
			t.Error("aggregator lost in RIB round trip")
		}
	}
}

func TestRIBWriterValidation(t *testing.T) {
	if _, err := NewRIBWriter(&bytes.Buffer{}, time.Now(), nil); err == nil {
		t.Error("empty peer table accepted")
	}
	ipv6Peer := []Peer{{Addr: netip.MustParseAddr("2001:db8::1"), AS: 1}}
	if _, err := NewRIBWriter(&bytes.Buffer{}, time.Now(), ipv6Peer); err == nil {
		t.Error("IPv6 peer accepted by IPv4 writer")
	}
	w, err := NewRIBWriter(&bytes.Buffer{}, time.Now(), ribPeers())
	if err != nil {
		t.Fatal(err)
	}
	// Unknown peer in entries.
	stranger := Peer{Addr: netip.MustParseAddr("10.9.9.9"), AS: 9}
	err = w.WritePrefix(bgp.MustPrefix("10.1.1.0/24"),
		[]RIBEntry{{Peer: stranger, Attrs: ribAttrs(1)}})
	if err == nil {
		t.Error("unknown peer accepted")
	}
}

func TestRIBReaderRequiresPeerIndex(t *testing.T) {
	// Hand-build a RIB record with no preceding peer table.
	var buf bytes.Buffer
	w, err := NewRIBWriter(&buf, time.Unix(0, 0), ribPeers())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WritePrefix(bgp.MustPrefix("10.1.1.0/24"),
		[]RIBEntry{{Peer: ribPeers()[0], OriginatedAt: time.Unix(0, 0), Attrs: ribAttrs(1)}}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Strip the PEER_INDEX_TABLE record (first record) from the stream.
	bodyLen := int(uint32(data[8])<<24 | uint32(data[9])<<16 | uint32(data[10])<<8 | uint32(data[11]))
	stripped := data[12+bodyLen:]
	r := NewRIBReader(bytes.NewReader(stripped))
	if _, err := r.Next(); !errors.Is(err, ErrNoPeerIndex) {
		t.Fatalf("err = %v", err)
	}
}

func TestRIBReaderSkipsForeignRecords(t *testing.T) {
	// A BGP4MP update record interleaved in the stream is skipped.
	var buf bytes.Buffer
	uw := NewWriter(&buf)
	if err := uw.WriteUpdate(time.Unix(10, 0), 1, 2,
		netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2"), testUpdate(7)); err != nil {
		t.Fatal(err)
	}
	w, err := NewRIBWriter(&buf, time.Unix(20, 0), ribPeers())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WritePrefix(bgp.MustPrefix("10.1.1.0/24"),
		[]RIBEntry{{Peer: ribPeers()[0], OriginatedAt: time.Unix(20, 0), Attrs: ribAttrs(5)}}); err != nil {
		t.Fatal(err)
	}
	r := NewRIBReader(&buf)
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Prefix != bgp.MustPrefix("10.1.1.0/24") {
		t.Errorf("prefix = %v", rec.Prefix)
	}
}

func TestRIBEmptyEntries(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewRIBWriter(&buf, time.Unix(0, 0), ribPeers())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WritePrefix(bgp.MustPrefix("10.3.0.0/24"), nil); err != nil {
		t.Fatal(err)
	}
	r := NewRIBReader(&buf)
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Entries) != 0 {
		t.Errorf("entries = %d", len(rec.Entries))
	}
}
