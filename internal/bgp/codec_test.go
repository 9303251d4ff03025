package bgp

import (
	"bytes"
	"errors"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleUpdate() *Update {
	return &Update{
		Origin:  OriginIGP,
		ASPath:  seqPath(64500, 64501, 3356),
		NextHop: netip.MustParseAddr("192.0.2.1"),
		NLRI:    []Prefix{MustPrefix("203.0.113.0/24")},
		Aggregator: &Aggregator{
			AS: 64500,
			ID: 1583020800, // 2020-03-01T00:00:00Z — a beacon timestamp
		},
		Communities: []Community{Community(64500<<16 | 1)},
	}
}

func TestRoundTripAnnounceAS4(t *testing.T) {
	c := Codec{AS4: true}
	u := sampleUpdate()
	wire, err := c.AppendMessage(nil, u)
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := c.DecodeMessage(wire)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(wire) {
		t.Errorf("consumed %d of %d bytes", n, len(wire))
	}
	if !got.ASPath.Equal(u.ASPath) {
		t.Errorf("path = %v, want %v", got.ASPath, u.ASPath)
	}
	if !reflect.DeepEqual(got.NLRI, u.NLRI) {
		t.Errorf("nlri = %v", got.NLRI)
	}
	if got.Aggregator == nil || *got.Aggregator != *u.Aggregator {
		t.Errorf("aggregator = %+v, want %+v", got.Aggregator, u.Aggregator)
	}
	if !reflect.DeepEqual(got.Communities, u.Communities) {
		t.Errorf("communities = %v", got.Communities)
	}
	if got.NextHop != u.NextHop {
		t.Errorf("nexthop = %v", got.NextHop)
	}
}

func TestRoundTripWithdrawal(t *testing.T) {
	c := Codec{AS4: true}
	u := &Update{Withdrawn: []Prefix{MustPrefix("203.0.113.0/24"), MustPrefix("198.51.100.0/25")}}
	wire, err := c.AppendMessage(nil, u)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := c.DecodeMessage(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsWithdrawalOnly() {
		t.Fatal("decoded update should be withdrawal-only")
	}
	if !reflect.DeepEqual(got.Withdrawn, u.Withdrawn) {
		t.Errorf("withdrawn = %v", got.Withdrawn)
	}
}

func TestRoundTrip2ByteASN(t *testing.T) {
	c := Codec{} // 2-octet
	u := sampleUpdate()
	wire, err := c.AppendMessage(nil, u)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := c.DecodeMessage(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ASPath.Equal(u.ASPath) {
		t.Errorf("2-byte path = %v", got.ASPath)
	}
}

func TestASTransSubstitution(t *testing.T) {
	c := Codec{} // 2-octet session
	u := sampleUpdate()
	u.ASPath = seqPath(4200000000, 64501) // 4-byte ASN on a 2-byte session
	u.Aggregator.AS = 4200000000
	wire, err := c.AppendMessage(nil, u)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := c.DecodeMessage(wire)
	if err != nil {
		t.Fatal(err)
	}
	if first := got.ASPath.ASNs()[0]; first != ASTrans {
		t.Errorf("4-byte ASN should encode as AS_TRANS, got %v", first)
	}
	if got.Aggregator.AS != ASTrans {
		t.Errorf("aggregator AS = %v, want AS_TRANS", got.Aggregator.AS)
	}
}

func TestRoundTripMEDLocalPrefAtomic(t *testing.T) {
	c := Codec{AS4: true}
	u := sampleUpdate()
	u.MED, u.HasMED = 120, true
	u.LocalPref, u.HasLocal = 300, true
	u.AtomicAgg = true
	wire, err := c.AppendMessage(nil, u)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := c.DecodeMessage(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasMED || got.MED != 120 {
		t.Errorf("MED = %v/%v", got.HasMED, got.MED)
	}
	if !got.HasLocal || got.LocalPref != 300 {
		t.Errorf("LOCAL_PREF = %v/%v", got.HasLocal, got.LocalPref)
	}
	if !got.AtomicAgg {
		t.Error("ATOMIC_AGGREGATE lost")
	}
}

func TestRoundTripASSet(t *testing.T) {
	c := Codec{AS4: true}
	u := sampleUpdate()
	u.ASPath = Path{Segments: []Segment{
		{Type: SegSequence, ASNs: []ASN{100, 200}},
		{Type: SegSet, ASNs: []ASN{300, 400}},
	}}
	wire, err := c.AppendMessage(nil, u)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := c.DecodeMessage(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ASPath.Equal(u.ASPath) {
		t.Errorf("AS_SET path = %v", got.ASPath)
	}
}

func TestHeaderValidation(t *testing.T) {
	c := Codec{AS4: true}
	wire, _ := c.AppendMessage(nil, sampleUpdate())

	if _, _, err := c.DecodeMessage(wire[:10]); !errors.Is(err, ErrShortMessage) {
		t.Errorf("short header: %v", err)
	}

	bad := append([]byte(nil), wire...)
	bad[3] = 0x00
	if _, _, err := c.DecodeMessage(bad); !errors.Is(err, ErrBadMarker) {
		t.Errorf("bad marker: %v", err)
	}

	bad = append([]byte(nil), wire...)
	bad[16], bad[17] = 0, 5 // length < header
	if _, _, err := c.DecodeMessage(bad); !errors.Is(err, ErrBadLength) {
		t.Errorf("bad length: %v", err)
	}

	bad = append([]byte(nil), wire...)
	bad[18] = byte(MsgKeepalive)
	if _, n, err := c.DecodeMessage(bad); !errors.Is(err, ErrNotUpdate) || n != len(wire) {
		t.Errorf("keepalive: err=%v n=%d", err, n)
	}

	// Truncated body.
	bad = append([]byte(nil), wire...)
	if _, _, err := c.DecodeMessage(bad[:len(bad)-2]); !errors.Is(err, ErrShortMessage) {
		t.Errorf("truncated body: %v", err)
	}
}

func TestDecodeMalformedAttrs(t *testing.T) {
	c := Codec{AS4: true}
	// Build a message with a corrupted attribute length by hand.
	u := sampleUpdate()
	wire, _ := c.AppendMessage(nil, u)
	// Attribute section starts after header(19) + wlen(2)+0 + alen(2).
	attrStart := HeaderLen + 2 + 2
	bad := append([]byte(nil), wire...)
	bad[attrStart+2] = 200 // ORIGIN length 200, overruns
	if _, _, err := c.DecodeMessage(bad); err == nil {
		t.Error("corrupted attribute accepted")
	}
}

func TestDecodeBadPrefixLength(t *testing.T) {
	c := Codec{}
	// Withdrawal with prefix length 33.
	body := []byte{0x00, 0x02, 33, 0x0a, 0x00, 0x00}
	msg := make([]byte, HeaderLen+len(body))
	for i := 0; i < 16; i++ {
		msg[i] = 0xff
	}
	msg[16] = byte((HeaderLen + len(body)) >> 8)
	msg[17] = byte(HeaderLen + len(body))
	msg[18] = byte(MsgUpdate)
	copy(msg[HeaderLen:], body)
	if _, _, err := c.DecodeMessage(msg); !errors.Is(err, ErrBadPrefix) {
		t.Errorf("bad prefix: %v", err)
	}
}

func TestEncodeRejectsIPv6(t *testing.T) {
	c := Codec{AS4: true}
	u := sampleUpdate()
	u.NLRI = []Prefix{netip.MustParsePrefix("2001:db8::/32")}
	if _, err := c.AppendMessage(nil, u); err == nil {
		t.Error("IPv6 NLRI accepted by IPv4-only codec")
	}
}

func TestEncodeHostBitsMasked(t *testing.T) {
	c := Codec{AS4: true}
	u := sampleUpdate()
	u.NLRI = []Prefix{netip.MustParsePrefix("203.0.113.77/24")}
	wire, err := c.AppendMessage(nil, u)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := c.DecodeMessage(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.NLRI[0] != MustPrefix("203.0.113.0/24") {
		t.Errorf("host bits survived: %v", got.NLRI[0])
	}
}

func TestRoundTripProperty(t *testing.T) {
	c := Codec{AS4: true}
	f := func(pathRaw []uint32, octet byte, bits uint8, ts uint32) bool {
		if len(pathRaw) > 64 {
			pathRaw = pathRaw[:64]
		}
		asns := make([]ASN, 0, len(pathRaw)+1)
		for _, v := range pathRaw {
			asns = append(asns, ASN(v%4000000000+1))
		}
		asns = append(asns, 65000)
		pfx, err := netip.AddrFrom4([4]byte{10, octet, 0, 0}).Prefix(int(bits%25) + 8)
		if err != nil {
			return false
		}
		u := &Update{
			Origin:     OriginIGP,
			ASPath:     seqPath(asns...),
			NextHop:    netip.AddrFrom4([4]byte{192, 0, 2, 1}),
			NLRI:       []Prefix{pfx},
			Aggregator: &Aggregator{AS: asns[len(asns)-1], ID: ts},
		}
		wire, err := c.AppendMessage(nil, u)
		if err != nil {
			return false
		}
		got, n, err := c.DecodeMessage(wire)
		if err != nil || n != len(wire) {
			return false
		}
		return got.ASPath.Equal(u.ASPath) &&
			got.NLRI[0] == pfx.Masked() &&
			got.Aggregator.ID == ts
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamOfMessages(t *testing.T) {
	// Decoding must report per-message lengths so a reader can walk a
	// concatenated dump.
	c := Codec{AS4: true}
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		u := sampleUpdate()
		u.Aggregator.ID = uint32(1000 + i)
		w, err := c.AppendMessage(nil, u)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(w)
	}
	data := buf.Bytes()
	var ids []uint32
	for len(data) > 0 {
		u, n, err := c.DecodeMessage(data)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, u.Aggregator.ID)
		data = data[n:]
	}
	if !reflect.DeepEqual(ids, []uint32{1000, 1001, 1002, 1003, 1004}) {
		t.Errorf("stream ids = %v", ids)
	}
}

func TestMessageTypeString(t *testing.T) {
	cases := map[MessageType]string{
		MsgOpen: "OPEN", MsgUpdate: "UPDATE", MsgNotification: "NOTIFICATION",
		MsgKeepalive: "KEEPALIVE", MessageType(9): "TYPE(9)",
	}
	for mt, want := range cases {
		if mt.String() != want {
			t.Errorf("%d.String() = %q", mt, mt.String())
		}
	}
}

func TestOriginString(t *testing.T) {
	if OriginIGP.String() != "IGP" || Origin(7).String() != "ORIGIN(7)" {
		t.Error("Origin.String wrong")
	}
}

// TestAppendMessageAllocatesNothing pins the append encoder at zero
// allocations into a buffer with room for the message.
func TestAppendMessageAllocatesNothing(t *testing.T) {
	c := Codec{AS4: true}
	u := sampleUpdate()
	buf := make([]byte, 0, MaxMessageLen)
	n := testing.AllocsPerRun(100, func() {
		var err error
		if buf, err = c.AppendMessage(buf[:0], u); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("AppendMessage: %g allocs/op, want 0", n)
	}
}

// TestAppendMessageErrorKeepsDst checks that a failed append hands dst
// back unextended.
func TestAppendMessageErrorKeepsDst(t *testing.T) {
	u := sampleUpdate()
	u.NLRI = []Prefix{MustPrefix("2001:db8::/32")}
	dst := []byte{1, 2, 3}
	got, err := Codec{AS4: true}.AppendMessage(dst, u)
	if err == nil {
		t.Fatal("IPv6 NLRI encoded")
	}
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("AppendMessage on error returned %v, want dst", got)
	}
}

// BenchmarkEncodeUpdate times encoding one update into a reused buffer,
// the way the MRT writer encodes its records. The buffer starts with room
// for any message, so even a single iteration reports the steady state.
func BenchmarkEncodeUpdate(b *testing.B) {
	c := Codec{AS4: true}
	u := sampleUpdate()
	buf := make([]byte, 0, MaxMessageLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = c.AppendMessage(buf[:0], u); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeUpdate(b *testing.B) {
	c := Codec{AS4: true}
	wire, err := c.AppendMessage(nil, sampleUpdate())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.DecodeMessage(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPathClean(b *testing.B) {
	p := seqPath(1, 1, 1, 2, 3, 3, 4, 5, 5, 5, 5, 6)
	for i := 0; i < b.N; i++ {
		if got := p.Clean(); len(got) != 6 {
			b.Fatal("clean changed")
		}
	}
}
