package bgp

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"
)

// fuzzSeedUpdates are hand-built updates covering every attribute the codec
// knows; encoded with both AS-number widths they form the fuzz seed corpus.
func fuzzSeedUpdates() []*Update {
	agg := &Aggregator{AS: 64512, ID: 0xc0000201}
	return []*Update{
		{
			NLRI:    []Prefix{MustPrefix("10.0.0.0/24")},
			ASPath:  seqPath(64500, 64501, 64502),
			NextHop: netip.AddrFrom4([4]byte{192, 0, 2, 1}),
			Origin:  OriginIGP,
		},
		{
			Withdrawn: []Prefix{MustPrefix("10.1.0.0/16"), MustPrefix("10.2.3.0/24")},
		},
		{
			NLRI:        []Prefix{MustPrefix("10.9.0.0/16"), MustPrefix("0.0.0.0/0")},
			ASPath:      Path{Segments: []Segment{{Type: SegSequence, ASNs: []ASN{64500}}, {Type: SegSet, ASNs: []ASN{64501, 64502}}}},
			NextHop:     netip.AddrFrom4([4]byte{203, 0, 113, 7}),
			Origin:      OriginEGP,
			MED:         77,
			HasMED:      true,
			LocalPref:   200,
			HasLocal:    true,
			AtomicAgg:   true,
			Aggregator:  agg,
			Communities: []Community{Community(64500<<16 | 666), Community(64500<<16 | 1)},
		},
	}
}

// FuzzDecodeUpdate throws arbitrary bytes at the BGP message decoder (both
// AS-number widths). The decoder must never panic; on a successful decode
// the message must re-encode, and the re-encoded bytes must decode to the
// same update (the codec's round-trip law). Appending the message to a
// prefix must give the prefix followed by the encoded message, and leave
// the prefix untouched.
func FuzzDecodeUpdate(f *testing.F) {
	for _, u := range fuzzSeedUpdates() {
		for _, as4 := range []bool{false, true} {
			msg, err := Codec{AS4: as4}.AppendMessage(nil, u)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(msg)
			// A truncated and a corrupted variant of every valid seed.
			f.Add(msg[:len(msg)-1])
			bad := bytes.Clone(msg)
			bad[len(bad)/2] ^= 0xff
			f.Add(bad)
		}
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, HeaderLen)) // marker only, bad length
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, as4 := range []bool{false, true} {
			codec := Codec{AS4: as4}
			u, n, err := codec.DecodeMessage(data)
			if err != nil {
				if errors.Is(err, ErrNotUpdate) && (n < HeaderLen || n > len(data)) {
					t.Fatalf("AS4=%v: ErrNotUpdate with consumed=%d of %d", as4, n, len(data))
				}
				continue
			}
			if n < HeaderLen || n > len(data) {
				t.Fatalf("AS4=%v: consumed %d of %d bytes", as4, n, len(data))
			}
			// Round trip. Re-encoding may legitimately exceed the 4096-byte
			// ceiling (the decoder tolerates missing mandatory attributes
			// that the encoder always emits), but must never fail otherwise.
			msg, err := codec.AppendMessage(nil, u)
			if errors.Is(err, ErrMessageTooLong) {
				continue
			}
			if err != nil {
				t.Fatalf("AS4=%v: re-encode of decoded update failed: %v", as4, err)
			}
			prefix := []byte("MRT\x00prefix")
			dst := append(make([]byte, 0, len(prefix)+len(msg)), prefix...)
			appended, err := codec.AppendMessage(dst, u)
			if err != nil {
				t.Fatalf("AS4=%v: AppendMessage(prefix, u) failed where AppendMessage(nil, u) succeeded: %v", as4, err)
			}
			if !bytes.Equal(appended, append(append([]byte(nil), prefix...), msg...)) {
				t.Fatalf("AS4=%v: AppendMessage(prefix, u) != prefix || AppendMessage(nil, u)", as4)
			}
			if !bytes.Equal(dst, prefix) {
				t.Fatalf("AS4=%v: AppendMessage modified its prefix", as4)
			}
			u2, n2, err := codec.DecodeMessage(msg)
			if err != nil {
				t.Fatalf("AS4=%v: decode of re-encoded message failed: %v", as4, err)
			}
			if n2 != len(msg) {
				t.Fatalf("AS4=%v: re-decode consumed %d of %d", as4, n2, len(msg))
			}
			checkUpdatesEquivalent(t, u, u2)
		}
	})
}

// checkUpdatesEquivalent compares the fields the wire format preserves
// exactly. NEXT_HOP is excluded: an absent attribute decodes as the zero
// Addr but re-encodes as 0.0.0.0. AS_PATH is compared by flattened ASNs:
// the encoder drops empty segments the decoder tolerates.
func checkUpdatesEquivalent(t *testing.T, a, b *Update) {
	t.Helper()
	if !prefixesEqual(a.NLRI, b.NLRI) {
		t.Fatalf("NLRI %v vs %v", a.NLRI, b.NLRI)
	}
	if !prefixesEqual(a.Withdrawn, b.Withdrawn) {
		t.Fatalf("withdrawn %v vs %v", a.Withdrawn, b.Withdrawn)
	}
	if len(a.NLRI) > 0 {
		// Attributes ride with announcements only; the encoder drops the
		// whole attribute block of a message without NLRI by design.
		if a.Origin != b.Origin {
			t.Fatalf("origin %v vs %v", a.Origin, b.Origin)
		}
		aP, bP := a.ASPath.ASNs(), b.ASPath.ASNs()
		if len(aP) != len(bP) {
			t.Fatalf("path %v vs %v", aP, bP)
		}
		for i := range aP {
			if aP[i] != bP[i] {
				t.Fatalf("path %v vs %v", aP, bP)
			}
		}
		if a.HasMED != b.HasMED || a.MED != b.MED {
			t.Fatalf("MED (%v,%d) vs (%v,%d)", a.HasMED, a.MED, b.HasMED, b.MED)
		}
		if a.HasLocal != b.HasLocal || a.LocalPref != b.LocalPref {
			t.Fatalf("LOCAL_PREF (%v,%d) vs (%v,%d)", a.HasLocal, a.LocalPref, b.HasLocal, b.LocalPref)
		}
		if a.AtomicAgg != b.AtomicAgg {
			t.Fatal("ATOMIC_AGGREGATE flag differs")
		}
		if len(a.Communities) != len(b.Communities) {
			t.Fatalf("communities %v vs %v", a.Communities, b.Communities)
		}
		for i := range a.Communities {
			if a.Communities[i] != b.Communities[i] {
				t.Fatalf("communities %v vs %v", a.Communities, b.Communities)
			}
		}
	}
}

func prefixesEqual(a, b []Prefix) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
