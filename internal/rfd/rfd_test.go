package rfd

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)

func TestPresetsValid(t *testing.T) {
	for name, p := range map[string]Params{"cisco": Cisco, "juniper": Juniper, "rfc7454": RFC7454} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s preset invalid: %v", name, err)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []Params{
		{},
		{HalfLife: time.Minute}, // reuse 0
		{HalfLife: time.Minute, ReuseThreshold: 1000, SuppressThreshold: 500, MaxSuppressTime: time.Hour},
		{HalfLife: time.Minute, ReuseThreshold: 100, SuppressThreshold: 500}, // no max suppress
		{HalfLife: time.Minute, ReuseThreshold: 100, SuppressThreshold: 500,
			MaxSuppressTime: time.Hour, WithdrawalPenalty: -1},
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid params did not panic")
		}
	}()
	New[string](Params{})
}

func TestMaxPenaltyFormula(t *testing.T) {
	// Cisco: reuse 750, maxsuppress 60min, halflife 15min => 750 * 2^4 = 12000.
	if got := Cisco.MaxPenalty(); math.Abs(got-12000) > 1e-9 {
		t.Errorf("Cisco MaxPenalty = %g, want 12000", got)
	}
}

func TestSingleFlapDoesNotSuppress(t *testing.T) {
	d := New[string](Cisco)
	if d.Record("k", t0, EventWithdraw) {
		t.Error("one withdrawal suppressed the route")
	}
	if got := d.Penalty("k", t0); got != 1000 {
		t.Errorf("penalty = %g", got)
	}
}

func TestRapidFlapsSuppress(t *testing.T) {
	d := New[string](Cisco)
	now := t0
	suppressed := false
	// Withdraw/announce every 30 s: the 3rd withdrawal pushes past 2000.
	for i := 0; i < 10 && !suppressed; i++ {
		suppressed = d.Record("k", now, EventWithdraw)
		now = now.Add(30 * time.Second)
		if !suppressed {
			suppressed = d.Record("k", now, EventReadvertise)
		}
		now = now.Add(30 * time.Second)
	}
	if !suppressed {
		t.Fatal("rapid flapping never suppressed")
	}
}

func TestPenaltyDecaysByHalfLife(t *testing.T) {
	d := New[string](Cisco)
	d.Record("k", t0, EventWithdraw)
	if got := d.Penalty("k", t0.Add(15*time.Minute)); math.Abs(got-500) > 1e-6 {
		t.Errorf("after one half-life penalty = %g, want 500", got)
	}
	if got := d.Penalty("k", t0.Add(30*time.Minute)); math.Abs(got-250) > 1e-6 {
		t.Errorf("after two half-lives penalty = %g, want 250", got)
	}
}

func suppress(t *testing.T, d *Damper[string], key string, start time.Time) time.Time {
	t.Helper()
	now := start
	for i := 0; i < 20; i++ {
		if d.Record(key, now, EventWithdraw) {
			return now
		}
		now = now.Add(time.Minute)
		if d.Record(key, now, EventReadvertise) {
			return now
		}
		now = now.Add(time.Minute)
	}
	t.Fatal("could not reach suppression")
	return time.Time{}
}

func TestReuseThresholdRelease(t *testing.T) {
	d := New[string](Cisco)
	when := suppress(t, d, "k", t0)
	if !d.Suppressed("k", when) {
		t.Fatal("should be suppressed")
	}
	reuse, ok := d.ReuseAt("k", when)
	if !ok {
		t.Fatal("ReuseAt not ok while suppressed")
	}
	if !reuse.After(when) {
		t.Fatalf("reuse %v not after suppression %v", reuse, when)
	}
	// Just before release: still suppressed; just after: released.
	if !d.Suppressed("k", reuse.Add(-time.Second)) {
		t.Error("released before reuse time")
	}
	if d.Suppressed("k", reuse.Add(time.Second)) {
		t.Error("still suppressed after reuse time")
	}
}

func TestMaxSuppressTimeBoundsReleaseAfterFlappingStops(t *testing.T) {
	// Pump the penalty to its ceiling with continuous flapping, then stop.
	// The ceiling is defined so that decay from it to the reuse threshold
	// takes exactly MaxSuppressTime — the mechanism real implementations use
	// to honor max-suppress-time.
	d := New[string](Cisco)
	when := suppress(t, d, "k", t0)
	stop := when
	for i := 0; i < 400; i++ {
		stop = stop.Add(30 * time.Second)
		d.Record("k", stop, EventWithdraw)
	}
	// While flapping continues, suppression persists (the paper's
	// indefinite-suppression caveat for too-short Breaks).
	if !d.Suppressed("k", stop) {
		t.Fatal("suppression lifted during continuous flapping")
	}
	// After the last flap, release must land at stop+MaxSuppressTime.
	if !d.Suppressed("k", stop.Add(Cisco.MaxSuppressTime-time.Minute)) {
		t.Error("released before max-suppress window elapsed from ceiling")
	}
	if d.Suppressed("k", stop.Add(Cisco.MaxSuppressTime+time.Minute)) {
		t.Error("suppression outlived max-suppress-time after flapping stopped")
	}
}

func TestReuseAtFromCeilingEqualsMaxSuppress(t *testing.T) {
	d := New[string](Cisco)
	when := suppress(t, d, "k", t0)
	// Pump the penalty to the ceiling.
	now := when
	for i := 0; i < 400; i++ {
		now = now.Add(10 * time.Second)
		d.Record("k", now, EventWithdraw)
	}
	reuse, ok := d.ReuseAt("k", now)
	if !ok {
		t.Fatal("not suppressed?")
	}
	got := reuse.Sub(now)
	if got > Cisco.MaxSuppressTime+time.Second || got < Cisco.MaxSuppressTime-time.Minute {
		t.Errorf("reuse delay from ceiling = %v, want ~%v", got, Cisco.MaxSuppressTime)
	}
}

func TestAttrChangePenalty(t *testing.T) {
	d := New[string](Cisco)
	d.Record("k", t0, EventAttrChange)
	if got := d.Penalty("k", t0); got != 500 {
		t.Errorf("attr-change penalty = %g", got)
	}
}

func TestJuniperSuppressesSlowerThanCisco(t *testing.T) {
	// Juniper has a higher threshold (3000) but also penalises
	// re-advertisements; for a pure withdraw/announce beacon both engines
	// suppress, Cisco on fewer events for slow flaps.
	flapsUntilSuppressed := func(p Params, interval time.Duration) int {
		d := New[string](p)
		now := t0
		for i := 1; i <= 100; i++ {
			ev := EventWithdraw
			if i%2 == 0 {
				ev = EventReadvertise
			}
			if d.Record("k", now, ev) {
				return i
			}
			now = now.Add(interval)
		}
		return -1
	}
	c := flapsUntilSuppressed(Cisco, 4*time.Minute)
	j := flapsUntilSuppressed(Juniper, 4*time.Minute)
	if c < 0 {
		t.Fatal("Cisco never suppressed 4-minute flapping")
	}
	if j < 0 {
		t.Fatal("Juniper never suppressed 4-minute flapping")
	}
	if j < c {
		// Juniper adds 1000 on readvertise too, so it actually reaches 3000
		// faster in events; just sanity-check both are plausible.
		t.Logf("juniper=%d cisco=%d", j, c)
	}
}

func TestDampsIntervalMatchesPaperExpectations(t *testing.T) {
	// Paper § 4.3: vendor defaults damp prefixes flapping at least every
	// ~8-9 minutes; RIPE/IETF recommended parameters need ~2 minutes.
	if !Cisco.DampsInterval(1 * time.Minute) {
		t.Error("Cisco should damp 1-minute flapping")
	}
	if !Cisco.DampsInterval(5 * time.Minute) {
		t.Error("Cisco should damp 5-minute flapping")
	}
	if Cisco.DampsInterval(10 * time.Minute) {
		t.Error("Cisco should NOT damp 10-minute flapping")
	}
	if !RFC7454.DampsInterval(1 * time.Minute) {
		t.Error("RFC7454 should damp 1-minute flapping")
	}
	if !RFC7454.DampsInterval(2 * time.Minute) {
		t.Error("RFC7454 should damp 2-minute flapping (paper chose 2 min for this)")
	}
	if RFC7454.DampsInterval(5 * time.Minute) {
		t.Error("RFC7454 should NOT damp 5-minute flapping")
	}
}

func TestIndependentKeys(t *testing.T) {
	d := New[string](Cisco)
	suppress(t, d, "a", t0)
	if d.Suppressed("b", t0.Add(time.Hour)) {
		t.Error("key b inherited key a's suppression")
	}
	if d.Penalty("b", t0) != 0 {
		t.Error("unknown key has penalty")
	}
}

func TestReuseAtNotSuppressed(t *testing.T) {
	d := New[string](Cisco)
	d.Record("k", t0, EventWithdraw)
	if _, ok := d.ReuseAt("k", t0); ok {
		t.Error("ReuseAt ok for unsuppressed key")
	}
	if _, ok := d.ReuseAt("missing", t0); ok {
		t.Error("ReuseAt ok for missing key")
	}
}

func TestPenaltyMonotoneDecayProperty(t *testing.T) {
	d := New[string](Cisco)
	d.Record("k", t0, EventWithdraw)
	d.Record("k", t0.Add(time.Minute), EventWithdraw)
	f := func(m1, m2 uint16) bool {
		a := time.Duration(m1%600) * time.Minute
		b := a + time.Duration(m2%600)*time.Minute
		// Later reads must never show a higher penalty (no events between).
		// Query in increasing time order since reads advance internal decay.
		pa := d.Penalty("k", t0.Add(2*time.Minute).Add(a))
		pb := d.Penalty("k", t0.Add(2*time.Minute).Add(b))
		return pb <= pa+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSuppressionSignatureTimescale(t *testing.T) {
	// The labeling stage relies on suppression lasting >> propagation time.
	// Cisco defaults with a 1-minute beacon must suppress for well over
	// 5 minutes (the paper's minimum r-delta).
	d := New[string](Cisco)
	when := suppress(t, d, "k", t0)
	reuse, _ := d.ReuseAt("k", when)
	if reuse.Sub(when) < 5*time.Minute {
		t.Errorf("suppression only %v, labeling assumption broken", reuse.Sub(when))
	}
}

func TestEventString(t *testing.T) {
	if EventWithdraw.String() != "withdraw" ||
		EventReadvertise.String() != "readvertise" ||
		EventAttrChange.String() != "attr-change" ||
		Event(9).String() != "event(9)" {
		t.Error("Event.String wrong")
	}
}

func TestDecayToIsStableAcrossReads(t *testing.T) {
	// Two reads at the same instant must agree (lazy decay is idempotent).
	d := New[string](Cisco)
	d.Record("k", t0, EventWithdraw)
	at := t0.Add(7 * time.Minute)
	p1 := d.Penalty("k", at)
	p2 := d.Penalty("k", at)
	if p1 != p2 {
		t.Errorf("reads at same instant differ: %g vs %g", p1, p2)
	}
}

func TestAggressiveLegacyDampsSlowFlapping(t *testing.T) {
	if err := AggressiveLegacy.Validate(); err != nil {
		t.Fatal(err)
	}
	if !AggressiveLegacy.CanSuppress() {
		t.Fatal("aggressive preset cannot suppress")
	}
	// The August 2019 pilot: only the 15-minute beacon provoked RFD.
	if !AggressiveLegacy.DampsInterval(15 * time.Minute) {
		t.Error("aggressive preset should damp 15-minute flapping")
	}
	if AggressiveLegacy.DampsInterval(60 * time.Minute) {
		t.Error("aggressive preset should not damp 60-minute flapping")
	}
	// Default vendor configs do NOT damp 15-minute flapping: the pilot's
	// other prefixes (30/60 min) stayed clean everywhere.
	if Cisco.DampsInterval(15 * time.Minute) {
		t.Error("Cisco defaults should not damp 15-minute flapping")
	}
	if Juniper.DampsInterval(15 * time.Minute) {
		t.Error("Juniper defaults should not damp 15-minute flapping")
	}
}
