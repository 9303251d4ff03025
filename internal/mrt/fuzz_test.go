package mrt

import (
	"bytes"
	"io"
	"net/netip"
	"testing"
	"time"

	"because/internal/bgp"
)

// fuzzSnapshot builds a small valid TABLE_DUMP_V2 stream (peer index plus
// two RIB records) to seed the corpus with structurally correct bytes.
func fuzzSnapshot(tb testing.TB) []byte {
	tb.Helper()
	peers := []Peer{
		{BGPID: netip.AddrFrom4([4]byte{192, 0, 2, 1}), Addr: netip.AddrFrom4([4]byte{192, 0, 2, 1}), AS: 64500},
		{BGPID: netip.AddrFrom4([4]byte{192, 0, 2, 2}), Addr: netip.AddrFrom4([4]byte{192, 0, 2, 2}), AS: 64501},
	}
	var buf bytes.Buffer
	w, err := NewRIBWriter(&buf, time.Unix(1583020800, 0).UTC(), peers)
	if err != nil {
		tb.Fatal(err)
	}
	attrs := &bgp.Update{
		NLRI:    []bgp.Prefix{bgp.MustPrefix("10.0.0.0/24")},
		ASPath:  seqPath(64500, 64999),
		NextHop: netip.AddrFrom4([4]byte{192, 0, 2, 1}),
	}
	for _, p := range []string{"10.0.0.0/24", "10.1.0.0/16"} {
		if err := w.WritePrefix(bgp.MustPrefix(p), []RIBEntry{
			{Peer: peers[0], OriginatedAt: time.Unix(1583020000, 0), Attrs: attrs},
			{Peer: peers[1], OriginatedAt: time.Unix(1583020100, 0), Attrs: attrs},
		}); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// fuzzUpdateDump builds a valid BGP4MP update stream: the RIB reader must
// skip such records cleanly while scanning mixed archives.
func fuzzUpdateDump(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	u := &bgp.Update{
		NLRI:    []bgp.Prefix{bgp.MustPrefix("10.0.0.0/24")},
		ASPath:  seqPath(64500),
		NextHop: netip.AddrFrom4([4]byte{192, 0, 2, 9}),
	}
	if err := w.WriteUpdate(time.Unix(1583020800, 0), 64500, 64999,
		netip.AddrFrom4([4]byte{192, 0, 2, 9}), netip.AddrFrom4([4]byte{192, 0, 2, 10}), u); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzParseTableDump feeds arbitrary bytes through the TABLE_DUMP_V2 reader
// (which exercises the generic MRT record reader underneath). The reader
// must never panic and must always terminate; successfully decoded records
// must uphold the reader's invariants.
func FuzzParseTableDump(f *testing.F) {
	snap := fuzzSnapshot(f)
	f.Add(snap)
	f.Add(snap[:len(snap)-3]) // truncated mid-record
	mutated := bytes.Clone(snap)
	mutated[14] ^= 0x40 // flip a bit inside the peer table body
	f.Add(mutated)
	f.Add(fuzzUpdateDump(f))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x00}, 12)) // empty body, type 0
	f.Fuzz(func(t *testing.T, data []byte) {
		rr := NewRIBReader(bytes.NewReader(data))
		for {
			rec, err := rr.Next()
			if err != nil {
				if err != io.EOF && rec != nil {
					t.Fatal("non-nil record returned alongside an error")
				}
				break
			}
			if !rec.Prefix.Addr().Is4() {
				t.Fatalf("decoded RIB prefix %v is not IPv4", rec.Prefix)
			}
			peers := rr.peers
			if len(peers) == 0 {
				t.Fatal("RIB record decoded with an empty peer table")
			}
			for _, e := range rec.Entries {
				if e.Attrs == nil {
					t.Fatal("RIB entry with nil attributes")
				}
			}
		}
	})
}
