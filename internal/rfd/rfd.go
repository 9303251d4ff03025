// Package rfd implements BGP Route Flap Damping (RFC 2439): the per-prefix,
// per-session penalty state machine that the paper measures in the wild.
//
// A damper maintains an exponentially decaying penalty for each key (the
// router simulator keys by (neighbor, prefix)). Announcements, withdrawals
// and attribute changes add to the penalty; when it exceeds the
// suppress-threshold the route is suppressed, and it is released again when
// the penalty decays below the reuse-threshold. Max-suppress-time is
// honored through the penalty ceiling: the penalty is clamped to the value
// that decays to the reuse-threshold in exactly max-suppress-time, so once
// flapping stops release happens within that bound (and continuous flapping
// suppresses indefinitely, as the paper's Break sizing discussion notes).
//
// The three parameter presets of the paper's Appendix B (Cisco, Juniper,
// RFC 7454 / RIPE-580 recommendations) are provided as ready-made Params.
package rfd

import (
	"fmt"
	"math"
	"time"
)

// Params is an RFD configuration. All penalties are in the dimensionless
// penalty units of RFC 2439 (a flap costs ~1000).
type Params struct {
	// WithdrawalPenalty is added when the route is withdrawn.
	WithdrawalPenalty float64
	// ReadvertisementPenalty is added when a withdrawn route is
	// re-advertised (0 on Cisco, 1000 on Juniper).
	ReadvertisementPenalty float64
	// AttrChangePenalty is added when a route is re-advertised with changed
	// attributes.
	AttrChangePenalty float64
	// SuppressThreshold: exceeding it suppresses the route.
	SuppressThreshold float64
	// ReuseThreshold: decaying below it releases a suppressed route.
	ReuseThreshold float64
	// HalfLife of the exponential penalty decay.
	HalfLife time.Duration
	// MaxSuppressTime caps how long a route stays suppressed.
	MaxSuppressTime time.Duration
}

// Presets from the paper's Appendix B.
var (
	// Cisco vendor defaults (deprecated by RIPE-580 but still shipped).
	Cisco = Params{
		WithdrawalPenalty:      1000,
		ReadvertisementPenalty: 0,
		AttrChangePenalty:      500,
		SuppressThreshold:      2000,
		ReuseThreshold:         750,
		HalfLife:               15 * time.Minute,
		MaxSuppressTime:        60 * time.Minute,
	}
	// Juniper vendor defaults.
	Juniper = Params{
		WithdrawalPenalty:      1000,
		ReadvertisementPenalty: 1000,
		AttrChangePenalty:      500,
		SuppressThreshold:      3000,
		ReuseThreshold:         750,
		HalfLife:               15 * time.Minute,
		MaxSuppressTime:        60 * time.Minute,
	}
	// RFC7454 is the IETF/RIPE recommended configuration (suppress at 6000),
	// which only damps genuinely noisy prefixes.
	RFC7454 = Params{
		WithdrawalPenalty:      1000,
		ReadvertisementPenalty: 1000,
		AttrChangePenalty:      500,
		SuppressThreshold:      6000,
		ReuseThreshold:         750,
		HalfLife:               15 * time.Minute,
		MaxSuppressTime:        60 * time.Minute,
	}
)

// Validate reports a descriptive error for configurations the state machine
// cannot run with.
func (p Params) Validate() error {
	switch {
	case p.HalfLife <= 0:
		return fmt.Errorf("rfd: half-life must be positive, got %v", p.HalfLife)
	case p.ReuseThreshold <= 0:
		return fmt.Errorf("rfd: reuse-threshold must be positive, got %g", p.ReuseThreshold)
	case p.SuppressThreshold <= p.ReuseThreshold:
		return fmt.Errorf("rfd: suppress-threshold %g must exceed reuse-threshold %g",
			p.SuppressThreshold, p.ReuseThreshold)
	case p.MaxSuppressTime <= 0:
		return fmt.Errorf("rfd: max-suppress-time must be positive, got %v", p.MaxSuppressTime)
	case p.WithdrawalPenalty < 0 || p.ReadvertisementPenalty < 0 || p.AttrChangePenalty < 0:
		return fmt.Errorf("rfd: penalties must be non-negative")
	}
	return nil
}

// MaxPenalty returns the penalty ceiling implied by the configuration: the
// value from which the penalty decays to exactly the reuse-threshold over
// max-suppress-time (RFC 2439 § 4.2 — clamping here bounds suppression to
// max-suppress-time even under continuous flapping).
func (p Params) MaxPenalty() float64 {
	return p.ReuseThreshold * math.Exp2(p.MaxSuppressTime.Minutes()/p.HalfLife.Minutes())
}

// CanSuppress reports whether the configuration can suppress at all: when
// the max-suppress penalty ceiling does not exceed the suppress-threshold,
// the penalty is clamped below the trigger and damping never fires — a
// real-world misconfiguration trap when operators lower max-suppress-time
// without shortening the half-life.
func (p Params) CanSuppress() bool {
	return p.MaxPenalty() > p.SuppressThreshold
}

// DampsInterval predicts whether a beacon that alternates withdrawal and
// announcement every interval will eventually be suppressed under p. It
// iterates the penalty recurrence to its fixed point, the prediction behind
// the paper's choice of beacon update intervals (§ 4.3).
//
//lint:allow deadcode test oracle: the paper's interval expectations are checked against it
func (p Params) DampsInterval(interval time.Duration) bool {
	if err := p.Validate(); err != nil {
		return false
	}
	decay := math.Exp2(-interval.Minutes() / p.HalfLife.Minutes())
	penalty := 0.0
	ceiling := p.MaxPenalty()
	// One beacon cycle = withdrawal then announcement, each spaced by
	// interval. Iterate enough cycles to reach steady state of a 2h burst.
	steps := int((2 * time.Hour) / interval)
	if steps > 4096 {
		steps = 4096
	}
	withdrawal := true
	for i := 0; i < steps; i++ {
		penalty *= decay
		if withdrawal {
			penalty += p.WithdrawalPenalty
		} else {
			penalty += p.ReadvertisementPenalty
		}
		if penalty > ceiling {
			penalty = ceiling
		}
		if penalty > p.SuppressThreshold {
			return true
		}
		withdrawal = !withdrawal
	}
	return false
}

// Event is the kind of route change fed to the damper.
type Event uint8

// Damping events.
const (
	// EventWithdraw is a route withdrawal.
	EventWithdraw Event = iota
	// EventReadvertise is an announcement of a previously withdrawn route.
	EventReadvertise
	// EventAttrChange is a re-announcement with changed path attributes.
	EventAttrChange
)

func (e Event) String() string {
	switch e {
	case EventWithdraw:
		return "withdraw"
	case EventReadvertise:
		return "readvertise"
	case EventAttrChange:
		return "attr-change"
	default:
		return fmt.Sprintf("event(%d)", uint8(e))
	}
}

// state is the per-key damping record.
type state struct {
	penalty    float64
	lastDecay  time.Time
	suppressed bool
}

// Damper runs the RFC 2439 state machine for a set of keys (typically
// (neighbor, prefix) pairs). The zero value is not usable; construct with
// New. Damper is not safe for concurrent use; the event-driven router owns
// one per session and drives it from a single goroutine.
type Damper[K comparable] struct {
	params Params
	states map[K]*state
}

// New returns a Damper with the given parameters. It panics on an invalid
// configuration — a misconfigured damper is a programming error in the
// simulator, not a runtime condition.
func New[K comparable](p Params) *Damper[K] {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Damper[K]{params: p, states: make(map[K]*state)}
}

// decayTo brings the state's penalty forward to now.
func (d *Damper[K]) decayTo(s *state, now time.Time) {
	if dt := now.Sub(s.lastDecay); dt > 0 {
		s.penalty *= math.Exp2(-dt.Minutes() / d.params.HalfLife.Minutes())
		s.lastDecay = now
	}
}

// maybeRelease applies the reuse-threshold release rule. Max-suppress-time
// is enforced through the penalty ceiling (see Params.MaxPenalty), not a
// timer: that is how deployed implementations bound suppression, and it is
// why continuous flapping can suppress a prefix indefinitely — the behavior
// the paper's Break phases are sized around (§ 4.3).
func (d *Damper[K]) maybeRelease(s *state) {
	if s.suppressed && s.penalty < d.params.ReuseThreshold {
		s.suppressed = false
	}
}

// Record feeds one event for key at time now and reports whether the route
// is suppressed afterwards.
func (d *Damper[K]) Record(key K, now time.Time, ev Event) (suppressed bool) {
	s := d.states[key]
	if s == nil {
		s = &state{lastDecay: now}
		d.states[key] = s
	}
	d.decayTo(s, now)
	d.maybeRelease(s)
	switch ev {
	case EventWithdraw:
		s.penalty += d.params.WithdrawalPenalty
	case EventReadvertise:
		s.penalty += d.params.ReadvertisementPenalty
	case EventAttrChange:
		s.penalty += d.params.AttrChangePenalty
	}
	if ceiling := d.params.MaxPenalty(); s.penalty > ceiling {
		s.penalty = ceiling
	}
	if !s.suppressed && s.penalty > d.params.SuppressThreshold {
		s.suppressed = true
	}
	return s.suppressed
}

// Suppressed reports whether key is suppressed at time now, applying decay
// and the release rules first.
func (d *Damper[K]) Suppressed(key K, now time.Time) bool {
	s := d.states[key]
	if s == nil {
		return false
	}
	d.decayTo(s, now)
	d.maybeRelease(s)
	return s.suppressed
}

// Penalty returns the decayed penalty for key at time now (0 for unknown
// keys).
func (d *Damper[K]) Penalty(key K, now time.Time) float64 {
	s := d.states[key]
	if s == nil {
		return 0
	}
	d.decayTo(s, now)
	return s.penalty
}

// ReuseAt returns the time at or after now when a currently suppressed key
// will be released assuming no further events, and true; it returns
// ok=false when the key is not suppressed at now. Release is the
// reuse-threshold crossing of the decay curve; because the penalty is
// clamped to the max-suppress ceiling, this is never more than
// max-suppress-time away. The router uses it to schedule the
// re-advertisement event.
func (d *Damper[K]) ReuseAt(key K, now time.Time) (time.Time, bool) {
	s := d.states[key]
	if s == nil {
		return time.Time{}, false
	}
	d.decayTo(s, now)
	d.maybeRelease(s)
	if !s.suppressed {
		return time.Time{}, false
	}
	// Time for penalty to decay to the reuse threshold:
	// penalty * 2^(-t/halfLife) = reuse  =>  t = halfLife * log2(penalty/reuse).
	minutes := d.params.HalfLife.Minutes() * math.Log2(s.penalty/d.params.ReuseThreshold)
	return now.Add(time.Duration(minutes * float64(time.Minute))), true
}

// AggressiveLegacy is a real-world "tightened" configuration some operators
// carried over from the 1990s guidance: vendor-default thresholds with a
// longer half-life, which damps even slow (15-minute) flapping — the
// behavior the paper's August 2019 pilot detected at its fastest interval.
var AggressiveLegacy = Params{
	WithdrawalPenalty:      1000,
	ReadvertisementPenalty: 0,
	AttrChangePenalty:      500,
	SuppressThreshold:      2000,
	ReuseThreshold:         750,
	HalfLife:               45 * time.Minute,
	MaxSuppressTime:        180 * time.Minute,
}
