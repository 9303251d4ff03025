package mrt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"because/internal/bgp"
)

func testUpdate(ts uint32) *bgp.Update {
	return &bgp.Update{
		Origin:     bgp.OriginIGP,
		ASPath:     bgp.NewPath(64500, 3356, 65010),
		NextHop:    netip.MustParseAddr("192.0.2.1"),
		NLRI:       []bgp.Prefix{bgp.MustPrefix("203.0.113.0/24")},
		Aggregator: &bgp.Aggregator{AS: 65010, ID: ts},
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	base := time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 3; i++ {
		err := w.WriteUpdate(base.Add(time.Duration(i)*time.Minute),
			bgp.ASN(64500+i), 65535,
			netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2"),
			testUpdate(uint32(1000+i)))
		if err != nil {
			t.Fatal(err)
		}
	}
	recs, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records", len(recs))
	}
	for i, rec := range recs {
		if !rec.IsUpdate() {
			t.Fatalf("record %d not an update", i)
		}
		if rec.PeerAS != bgp.ASN(64500+i) {
			t.Errorf("peer AS = %v", rec.PeerAS)
		}
		if rec.LocalAS != 65535 {
			t.Errorf("local AS = %v", rec.LocalAS)
		}
		if rec.Update.Aggregator.ID != uint32(1000+i) {
			t.Errorf("aggregator ts = %d", rec.Update.Aggregator.ID)
		}
		if want := base.Add(time.Duration(i) * time.Minute); !rec.Timestamp.Equal(want) {
			t.Errorf("timestamp = %v, want %v", rec.Timestamp, want)
		}
		if rec.PeerIP != netip.MustParseAddr("10.0.0.1") {
			t.Errorf("peer IP = %v", rec.PeerIP)
		}
	}
}

func TestReaderCleanEOF(t *testing.T) {
	recs, err := ReadAll(bytes.NewReader(nil))
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty stream: %v recs=%d", err, len(recs))
	}
}

func TestReaderTruncatedHeader(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{1, 2, 3}))
	if _, err := r.Next(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v", err)
	}
}

func TestReaderTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteUpdate(time.Unix(0, 0), 1, 2,
		netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2"), testUpdate(1)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-4]
	r := NewReader(bytes.NewReader(data))
	if _, err := r.Next(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v", err)
	}
}

func TestReaderSkipsUnknownTypes(t *testing.T) {
	var buf bytes.Buffer
	// A TABLE_DUMP_V2 (13) record with arbitrary body.
	hdr := make([]byte, 0, 12)
	hdr = binary.BigEndian.AppendUint32(hdr, 1583020800)
	hdr = binary.BigEndian.AppendUint16(hdr, 13)
	hdr = binary.BigEndian.AppendUint16(hdr, 2)
	hdr = binary.BigEndian.AppendUint32(hdr, 4)
	buf.Write(hdr)
	buf.Write([]byte{1, 2, 3, 4})
	// Followed by a normal update record.
	w := NewWriter(&buf)
	if err := w.WriteUpdate(time.Unix(1583020900, 0), 7, 8,
		netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2"), testUpdate(9)); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].IsUpdate() || len(recs[0].Raw) != 4 {
		t.Error("unknown record should carry raw body, no update")
	}
	if !recs[1].IsUpdate() {
		t.Error("update record after unknown record lost")
	}
}

// TestReaderRawRecordsIndependent reads two raw records through one
// Reader, whose body buffer is reused: the first record's Raw must keep
// its bytes after the second is read.
func TestReaderRawRecordsIndependent(t *testing.T) {
	var buf bytes.Buffer
	for _, body := range [][]byte{{1, 2, 3, 4}, {5, 6, 7, 8}} {
		hdr := binary.BigEndian.AppendUint32(nil, 1583020800)
		hdr = binary.BigEndian.AppendUint16(hdr, 13)
		hdr = binary.BigEndian.AppendUint16(hdr, 2)
		hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(body)))
		buf.Write(append(hdr, body...))
	}
	r := NewReader(&buf)
	first, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Raw, []byte{1, 2, 3, 4}) || !bytes.Equal(second.Raw, []byte{5, 6, 7, 8}) {
		t.Errorf("raw bodies %v and %v, want [1 2 3 4] and [5 6 7 8]", first.Raw, second.Raw)
	}
}

func TestReaderRejectsHugeBody(t *testing.T) {
	hdr := make([]byte, 0, 12)
	hdr = binary.BigEndian.AppendUint32(hdr, 0)
	hdr = binary.BigEndian.AppendUint16(hdr, TypeBGP4MP)
	hdr = binary.BigEndian.AppendUint16(hdr, SubtypeMessageAS4)
	hdr = binary.BigEndian.AppendUint32(hdr, maxBody+1)
	r := NewReader(bytes.NewReader(hdr))
	if _, err := r.Next(); !errors.Is(err, ErrBodyTooLong) {
		t.Fatalf("err = %v", err)
	}
}

func TestReaderBadAFI(t *testing.T) {
	body := make([]byte, 0)
	body = binary.BigEndian.AppendUint32(body, 1) // peer AS
	body = binary.BigEndian.AppendUint32(body, 2) // local AS
	body = binary.BigEndian.AppendUint16(body, 0) // ifindex
	body = binary.BigEndian.AppendUint16(body, 99)
	hdr := make([]byte, 0, 12)
	hdr = binary.BigEndian.AppendUint32(hdr, 0)
	hdr = binary.BigEndian.AppendUint16(hdr, TypeBGP4MP)
	hdr = binary.BigEndian.AppendUint16(hdr, SubtypeMessageAS4)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(body)))
	r := NewReader(bytes.NewReader(append(hdr, body...)))
	if _, err := r.Next(); !errors.Is(err, ErrBadAFI) {
		t.Fatalf("err = %v", err)
	}
}

func TestWriterRejectsIPv6Peer(t *testing.T) {
	w := NewWriter(io.Discard)
	err := w.WriteUpdate(time.Unix(0, 0), 1, 2,
		netip.MustParseAddr("2001:db8::1"), netip.MustParseAddr("10.0.0.2"), testUpdate(1))
	if !errors.Is(err, ErrBadAFI) {
		t.Fatalf("err = %v", err)
	}
}

// TestWritersRefuseOutOfRangeTimestamps checks both writers against the
// edges of MRT's 32-bit Unix-seconds timestamp: a time outside it is
// ErrTimestampRange with nothing written, and the last second it holds
// round-trips.
func TestWritersRefuseOutOfRangeTimestamps(t *testing.T) {
	peer, local := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2")
	last := time.Date(2106, 2, 7, 6, 28, 15, 0, time.UTC)
	for _, ts := range []time.Time{
		time.Date(1969, 12, 31, 23, 59, 59, 0, time.UTC),
		last.Add(time.Second),
	} {
		var buf bytes.Buffer
		if err := NewWriter(&buf).WriteUpdate(ts, 1, 2, peer, local, testUpdate(1)); !errors.Is(err, ErrTimestampRange) {
			t.Errorf("WriteUpdate at %v: err = %v, want ErrTimestampRange", ts, err)
		}
		if _, err := NewRIBWriter(&buf, ts, ribPeers()); !errors.Is(err, ErrTimestampRange) {
			t.Errorf("NewRIBWriter at %v: err = %v, want ErrTimestampRange", ts, err)
		}
		rw, err := NewRIBWriter(&buf, last, ribPeers())
		if err != nil {
			t.Fatal(err)
		}
		err = rw.WritePrefix(bgp.MustPrefix("10.1.1.0/24"),
			[]RIBEntry{{Peer: ribPeers()[0], OriginatedAt: ts, Attrs: ribAttrs(1)}})
		if !errors.Is(err, ErrTimestampRange) {
			t.Errorf("WritePrefix with an entry at %v: err = %v, want ErrTimestampRange", ts, err)
		}
		if buf.Len() != 0 {
			t.Errorf("refused records at %v wrote %d bytes", ts, buf.Len())
		}
	}

	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteUpdate(last, 1, 2, peer, local, testUpdate(1)); err != nil {
		t.Fatal(err)
	}
	rec, err := NewReader(&buf).Next()
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Timestamp.Equal(last) {
		t.Errorf("timestamp %v read back as %v", last, rec.Timestamp)
	}
}

// TestWriteUpdateAllocatesNothing pins the update writer at zero
// allocations per record once its buffer has grown.
func TestWriteUpdateAllocatesNothing(t *testing.T) {
	w := NewWriter(io.Discard)
	u := testUpdate(1)
	peer, local := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2")
	ts := time.Unix(1583020800, 0)
	n := testing.AllocsPerRun(100, func() {
		if err := w.WriteUpdate(ts, 64500, 64999, peer, local, u); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("WriteUpdate: %g allocs/op, want 0", n)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(peer, local uint32, ts uint32, pathRaw []uint16) bool {
		if len(pathRaw) > 32 {
			pathRaw = pathRaw[:32]
		}
		asns := []bgp.ASN{bgp.ASN(peer%100000 + 1)}
		for _, v := range pathRaw {
			asns = append(asns, bgp.ASN(v)+1)
		}
		u := &bgp.Update{
			Origin:     bgp.OriginIGP,
			ASPath:     bgp.NewPath(asns...),
			NextHop:    netip.MustParseAddr("192.0.2.1"),
			NLRI:       []bgp.Prefix{bgp.MustPrefix("203.0.113.0/24")},
			Aggregator: &bgp.Aggregator{AS: asns[len(asns)-1], ID: ts},
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteUpdate(time.Unix(int64(ts), 0), bgp.ASN(peer%1<<31+1), bgp.ASN(local%1<<31+1),
			netip.MustParseAddr("10.1.2.3"), netip.MustParseAddr("10.3.2.1"), u); err != nil {
			return false
		}
		recs, err := ReadAll(&buf)
		if err != nil || len(recs) != 1 || !recs[0].IsUpdate() {
			return false
		}
		return recs[0].Update.ASPath.Equal(u.ASPath) && recs[0].Update.Aggregator.ID == ts
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEmbeddedNonUpdateKeptRaw(t *testing.T) {
	// Build a BGP4MP record whose embedded message is a KEEPALIVE.
	keep := make([]byte, 19)
	for i := 0; i < 16; i++ {
		keep[i] = 0xff
	}
	binary.BigEndian.PutUint16(keep[16:18], 19)
	keep[18] = byte(bgp.MsgKeepalive)

	body := make([]byte, 0)
	body = binary.BigEndian.AppendUint32(body, 1)
	body = binary.BigEndian.AppendUint32(body, 2)
	body = binary.BigEndian.AppendUint16(body, 0)
	body = binary.BigEndian.AppendUint16(body, AFIIPv4)
	body = append(body, 10, 0, 0, 1, 10, 0, 0, 2)
	body = append(body, keep...)

	hdr := make([]byte, 0, 12)
	hdr = binary.BigEndian.AppendUint32(hdr, 0)
	hdr = binary.BigEndian.AppendUint16(hdr, TypeBGP4MP)
	hdr = binary.BigEndian.AppendUint16(hdr, SubtypeMessageAS4)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(body)))

	r := NewReader(bytes.NewReader(append(hdr, body...)))
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec.IsUpdate() {
		t.Error("keepalive decoded as update")
	}
	if len(rec.Raw) != len(keep) {
		t.Errorf("raw length %d, want %d", len(rec.Raw), len(keep))
	}
}

func Test2ByteSubtype(t *testing.T) {
	// Hand-build a SubtypeMessage (2-byte ASN) record and decode it.
	codec := bgp.Codec{}
	u := &bgp.Update{
		Origin:  bgp.OriginIGP,
		ASPath:  bgp.NewPath(65000, 65001),
		NextHop: netip.MustParseAddr("192.0.2.1"),
		NLRI:    []bgp.Prefix{bgp.MustPrefix("203.0.113.0/24")},
	}
	msg, err := codec.EncodeMessage(u)
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 0)
	body = binary.BigEndian.AppendUint16(body, 65000)
	body = binary.BigEndian.AppendUint16(body, 65535)
	body = binary.BigEndian.AppendUint16(body, 0)
	body = binary.BigEndian.AppendUint16(body, AFIIPv4)
	body = append(body, 10, 0, 0, 1, 10, 0, 0, 2)
	body = append(body, msg...)
	hdr := make([]byte, 0, 12)
	hdr = binary.BigEndian.AppendUint32(hdr, 100)
	hdr = binary.BigEndian.AppendUint16(hdr, TypeBGP4MP)
	hdr = binary.BigEndian.AppendUint16(hdr, SubtypeMessage)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(body)))
	r := NewReader(bytes.NewReader(append(hdr, body...)))
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec.PeerAS != 65000 || !rec.IsUpdate() {
		t.Fatalf("rec = %+v", rec)
	}
	if !rec.Update.ASPath.Equal(u.ASPath) {
		t.Errorf("path = %v", rec.Update.ASPath)
	}
}

// BenchmarkWriteUpdateRecord times writing one update record. One record
// is written before the timer starts, so the writer's buffer has grown and
// even a single iteration reports the steady state.
func BenchmarkWriteUpdateRecord(b *testing.B) {
	w := NewWriter(io.Discard)
	u := testUpdate(1)
	peer := netip.MustParseAddr("10.0.0.1")
	local := netip.MustParseAddr("10.0.0.2")
	ts := time.Unix(1583020800, 0)
	if err := w.WriteUpdate(ts, 64500, 64999, peer, local, u); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.WriteUpdate(ts, 64500, 64999, peer, local, u); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadUpdateRecord times reading one update record through a
// Reader that has already read one, as when draining an archive, so the
// reused body buffer is at steady capacity.
func BenchmarkReadUpdateRecord(b *testing.B) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteUpdate(time.Unix(0, 0), 1, 2,
		netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2"), testUpdate(1)); err != nil {
		b.Fatal(err)
	}
	record := buf.Bytes()
	src := bytes.NewReader(record)
	r := NewReader(src)
	if _, err := r.Next(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reset(record)
		if _, err := r.Next(); err != nil {
			b.Fatal(err)
		}
	}
}
