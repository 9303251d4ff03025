package collector

import (
	"bytes"
	"context"
	"io"
	"testing"
	"time"

	"because/internal/bgp"
	"because/internal/mrt"
	"because/internal/netsim"
	"because/internal/router"
	"because/internal/stats"
	"because/internal/topology"
)

var (
	t0  = time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)
	pfx = bgp.MustPrefix("10.1.1.0/24")
)

func testNet(t testing.TB) (*netsim.Engine, *router.Network) {
	t.Helper()
	g := topology.NewGraph()
	for asn, tier := range map[bgp.ASN]topology.Tier{1: topology.TierOne, 2: topology.TierTransit, 3: topology.TierStub} {
		if err := g.AddAS(asn, tier); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range []struct{ a, b bgp.ASN }{{1, 2}, {2, 3}} {
		if err := g.AddLink(l.a, l.b, topology.RelCustomer); err != nil {
			t.Fatal(err)
		}
	}
	eng := netsim.NewEngine(t0)
	net := router.New(eng, g, router.Options{
		LinkDelay: func(a, b bgp.ASN, rng *stats.RNG) time.Duration { return 10 * time.Millisecond },
		MRAI:      func(asn bgp.ASN, rng *stats.RNG) time.Duration { return 0 },
	}, stats.NewRNG(1))
	return eng, net
}

func TestCollectorArchivesUpdates(t *testing.T) {
	eng, net := testNet(t)
	c := New(stats.NewRNG(2))
	vps := []VantagePoint{{AS: 1, Project: RIS}, {AS: 2, Project: RouteViews}}
	if err := c.AttachContext(context.Background(), net, vps); err != nil {
		t.Fatal(err)
	}
	if err := net.Originate(3, pfx, 42); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if err := net.WithdrawOrigin(3, pfx); err != nil {
		t.Fatal(err)
	}
	eng.Run()

	entries := c.Entries()
	if len(entries) != 4 { // 2 VPs x (announce + withdraw)
		t.Fatalf("entries = %d", len(entries))
	}
	if c.Len() != 4 {
		t.Errorf("Len = %d", c.Len())
	}
	for _, e := range entries {
		if e.Exported.Before(e.Received) {
			t.Errorf("export %v before receive %v", e.Exported, e.Received)
		}
	}
}

func TestAttachUnknownAS(t *testing.T) {
	_, net := testNet(t)
	c := New(stats.NewRNG(1))
	if err := c.AttachContext(context.Background(), net, []VantagePoint{{AS: 99, Project: RIS}}); err == nil {
		t.Error("unknown AS accepted")
	}
}

func TestExportDelayPersonas(t *testing.T) {
	rng := stats.NewRNG(3)
	recv := t0.Add(17 * time.Second)
	// RouteViews: export on the next 50 s boundary.
	d := RouteViews.exportDelay(recv, rng)
	exp := recv.Add(d)
	if exp.Unix()%50 != 0 {
		t.Errorf("routeviews export %v not on 50s cycle", exp)
	}
	if d <= 0 || d > 50*time.Second {
		t.Errorf("routeviews delay = %v", d)
	}
	// Isolario: within 30 s.
	for i := 0; i < 100; i++ {
		if d := Isolario.exportDelay(recv, rng); d < 0 || d >= 30*time.Second {
			t.Fatalf("isolario delay = %v", d)
		}
	}
	// RIS: within 60 s, diverse.
	seen := map[int64]bool{}
	for i := 0; i < 100; i++ {
		d := RIS.exportDelay(recv, rng)
		if d < 0 || d >= 60*time.Second {
			t.Fatalf("ris delay = %v", d)
		}
		seen[int64(d/time.Second)] = true
	}
	if len(seen) < 10 {
		t.Errorf("ris delays not diverse: %d distinct seconds", len(seen))
	}
}

func TestEntriesSortedByExportTime(t *testing.T) {
	eng, net := testNet(t)
	c := New(stats.NewRNG(4))
	if err := c.AttachContext(context.Background(), net, []VantagePoint{{AS: 1, Project: RIS}, {AS: 2, Project: Isolario}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		ts := uint32(i)
		eng.At(t0.Add(time.Duration(i)*time.Minute), netsim.Func(func() {
			_ = net.Originate(3, pfx, ts)
		}))
	}
	eng.Run()
	entries := c.Entries()
	for i := 1; i < len(entries); i++ {
		if entries[i].Exported.Before(entries[i-1].Exported) {
			t.Fatal("entries not sorted by export time")
		}
	}
}

func TestByProject(t *testing.T) {
	eng, net := testNet(t)
	c := New(stats.NewRNG(5))
	if err := c.AttachContext(context.Background(), net, []VantagePoint{
		{AS: 1, Project: RIS}, {AS: 1, Project: RouteViews}, {AS: 2, Project: Isolario},
	}); err != nil {
		t.Fatal(err)
	}
	if err := net.Originate(3, pfx, 1); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	by := make(map[Project]int)
	for _, e := range c.Entries() {
		by[e.VP.Project]++
	}
	if by[RIS] != 1 || by[RouteViews] != 1 || by[Isolario] != 1 {
		t.Errorf("per-project counts: ris=%d rv=%d iso=%d", by[RIS], by[RouteViews], by[Isolario])
	}
}

func TestMRTRoundTrip(t *testing.T) {
	eng, net := testNet(t)
	c := New(stats.NewRNG(6))
	if err := c.AttachContext(context.Background(), net, []VantagePoint{{AS: 1, Project: RIS}}); err != nil {
		t.Fatal(err)
	}
	if err := net.Originate(3, pfx, 1234); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if err := net.WithdrawOrigin(3, pfx); err != nil {
		t.Fatal(err)
	}
	eng.Run()

	var buf bytes.Buffer
	if err := WriteMRT(&buf, c.Entries()); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMRT(&buf, RIS)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("read %d entries", len(back))
	}
	if back[0].VP.AS != 1 || back[0].VP.Project != RIS {
		t.Errorf("vp = %+v", back[0].VP)
	}
	if back[0].Update.Aggregator == nil || back[0].Update.Aggregator.ID != 1234 {
		t.Error("aggregator timestamp lost in MRT round trip")
	}
	if bgp.PathKey(back[0].Update.ASPath.Clean()) != "1 2 3" {
		t.Errorf("path = %v", back[0].Update.ASPath)
	}
	if !back[1].Update.IsWithdrawalOnly() {
		t.Error("withdrawal lost")
	}
	// MRT timestamps have 1-second resolution; allow rounding.
	orig := c.Entries()[0].Exported
	if d := back[0].Exported.Sub(orig); d < -time.Second || d > time.Second {
		t.Errorf("timestamp drift %v", d)
	}
}

func TestProjectString(t *testing.T) {
	if RIS.String() != "ris" || RouteViews.String() != "routeviews" ||
		Isolario.String() != "isolario" || Project(9).String() != "project(9)" {
		t.Error("Project.String wrong")
	}
}

func TestVantagePointAddr(t *testing.T) {
	a := VantagePoint{AS: 0x1234}.Addr()
	if a != bgp.MustPrefix("10.255.18.52/32").Addr() {
		t.Errorf("addr = %v", a)
	}
}

func TestWriteRIBSnapshot(t *testing.T) {
	eng, net := testNet(t)
	c := New(stats.NewRNG(7))
	if err := c.AttachContext(context.Background(), net, []VantagePoint{{AS: 1, Project: RIS}, {AS: 2, Project: Isolario}}); err != nil {
		t.Fatal(err)
	}
	pfx2 := bgp.MustPrefix("10.2.2.0/24")
	if err := net.Originate(3, pfx, 11); err != nil {
		t.Fatal(err)
	}
	if err := net.Originate(3, pfx2, 12); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// Withdraw one prefix: the snapshot after the withdrawal must omit it.
	if err := net.WithdrawOrigin(3, pfx2); err != nil {
		t.Fatal(err)
	}
	eng.Run()

	at := eng.Now().Add(2 * time.Minute) // past all export delays
	var buf bytes.Buffer
	if err := WriteRIB(&buf, c.Entries(), at); err != nil {
		t.Fatal(err)
	}
	rr := mrt.NewRIBReader(&buf)
	var recs []*mrt.RIBRecord
	for {
		rec, err := rr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 1 {
		t.Fatalf("RIB records = %d, want 1 (withdrawn prefix omitted)", len(recs))
	}
	rec := recs[0]
	if rec.Prefix != pfx {
		t.Errorf("prefix = %v", rec.Prefix)
	}
	if len(rec.Entries) != 2 {
		t.Fatalf("entries = %d", len(rec.Entries))
	}
	for _, e := range rec.Entries {
		if got := bgp.PathKey(e.Attrs.ASPath.Clean()); got == "" {
			t.Error("empty path in RIB entry")
		}
		if e.Attrs.Aggregator == nil || e.Attrs.Aggregator.ID != 11 {
			t.Errorf("aggregator = %+v", e.Attrs.Aggregator)
		}
	}
	// Snapshot before any data errors out.
	if err := WriteRIB(&bytes.Buffer{}, c.Entries(), t0.Add(-time.Hour)); err == nil {
		t.Error("empty snapshot accepted")
	}
}
