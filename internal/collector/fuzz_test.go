package collector

import (
	"bytes"
	"context"
	"testing"
	"time"

	"because/internal/stats"
)

// fuzzArchive archives a short run over the test network — two VPs, an
// announcement, a re-announcement and a withdrawal — with WriteMRT.
func fuzzArchive(t testing.TB) []byte {
	t.Helper()
	eng, net := testNet(t)
	c := New(stats.NewRNG(8))
	if err := c.AttachContext(context.Background(), net, []VantagePoint{{AS: 1, Project: RIS}, {AS: 2, Project: RIS}}); err != nil {
		t.Fatal(err)
	}
	for i, seq := range []uint32{7, 8} {
		seq := seq
		eng.At(t0.Add(time.Duration(i)*time.Minute), func() { _ = net.Originate(3, pfx, seq) })
	}
	eng.At(t0.Add(5*time.Minute), func() { _ = net.WithdrawOrigin(3, pfx) })
	eng.Run()
	var buf bytes.Buffer
	if err := WriteMRT(&buf, c.Entries()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadMRT feeds arbitrary bytes through ReadMRT. It must never panic,
// and any archive it accepts must reach a fixed point after one
// WriteMRT→ReadMRT cycle: re-archiving what was read back reproduces the
// re-archived bytes exactly.
func FuzzReadMRT(f *testing.F) {
	archive := fuzzArchive(f)
	f.Add(archive)
	f.Add(archive[:len(archive)-5]) // truncated mid-record
	f.Add(archive[:11])             // truncated mid-header
	garbled := bytes.Clone(archive)
	garbled[20] ^= 0xff // inside the first record's BGP4MP header
	f.Add(garbled)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := ReadMRT(bytes.NewReader(data), RIS)
		if err != nil {
			return
		}
		var once bytes.Buffer
		if err := WriteMRT(&once, entries); err != nil {
			t.Fatalf("re-archiving an accepted archive: %v", err)
		}
		back, err := ReadMRT(bytes.NewReader(once.Bytes()), RIS)
		if err != nil {
			t.Fatalf("re-reading a WriteMRT archive: %v", err)
		}
		if len(back) != len(entries) {
			t.Fatalf("cycle changed the entry count: %d → %d", len(entries), len(back))
		}
		var twice bytes.Buffer
		if err := WriteMRT(&twice, back); err != nil {
			t.Fatalf("re-archiving a WriteMRT archive: %v", err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("WriteMRT→ReadMRT is not a fixed point")
		}
	})
}
