// Package ctxflow seeds context-threading violations (and the exempt
// idioms) for the ctxflow analyzer's golden test.
package ctxflow

import "context"

func ctxAware(ctx context.Context) error { return ctx.Err() }

func ctxAwareContext(ctx context.Context, n int) error {
	_ = n
	return ctx.Err()
}

type holder struct{ ctx context.Context }

// MintsRoot stores a fresh root context in a local: flagged (rule 1).
func MintsRoot() error {
	ctx := context.Background()
	return ctxAware(ctx)
}

// MintsTODO passes a root context in a multi-statement body: flagged
// (rule 1).
func MintsTODO() error {
	err := ctxAware(context.TODO())
	return err
}

// DropsForField ignores the caller's ctx in favour of a stored one:
// flagged (rule 2).
func DropsForField(ctx context.Context, h holder) error {
	_ = ctx
	return ctxAware(h.ctx)
}

// Rebound starts with a derived alias but rebinds it to a stored
// context before the call: flagged (rule 2 needs reaching definitions
// to see this — a flow-insensitive check would pass it).
func Rebound(ctx context.Context, h holder) error {
	ctx2 := ctx
	ctx2 = h.ctx
	return ctxAware(ctx2)
}

// ShimWithCtx already receives a context yet delegates with a fresh
// root: flagged (rule 1 — the nil-ctx default is the only root a
// context-receiving function may mint). Rule 2 stays quiet here: library
// packages report the root at its minting site only.
func ShimWithCtx(ctx context.Context) error {
	return ctxAwareContext(context.Background(), 0)
}

// Derived threads a context.With* derivative: silent.
func Derived(ctx context.Context) error {
	c2, cancel := context.WithCancel(ctx)
	defer cancel()
	return ctxAware(c2)
}

// AliasDerived passes an alias of the parameter: silent.
func AliasDerived(ctx context.Context) error {
	c := ctx
	return ctxAware(c)
}

// Shim is a context-free twin whose whole body is one return delegating
// to the Context variant with a fresh root: flagged (rule 1 — a caller
// that goes through the twin cannot cancel the work).
func Shim(n int) error {
	return ctxAwareContext(context.Background(), n)
}

// DefaultNil is the defensive-defaulting idiom: silent, including the
// downstream call that sees the re-defined parameter.
func DefaultNil(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return ctxAware(ctx)
}

// ClosureUsesOuter closes over the outer ctx: silent.
func ClosureUsesOuter(ctx context.Context) error {
	f := func() error { return ctxAware(ctx) }
	return f()
}

// ClosureOwnsCtx returns a closure with its own context parameter,
// analyzed as a function of its own: silent.
func ClosureOwnsCtx(ctx context.Context) func(context.Context) error {
	_ = ctx
	return func(inner context.Context) error { return ctxAware(inner) }
}

// Unreachable drops a stored context only on a dead path: silent (the
// CFG proves the second return can never run).
func Unreachable(ctx context.Context, h holder) error {
	return ctxAware(ctx)
	return ctxAware(h.ctx)
}

// Allowed carries the escape hatch on the line above: suppressed.
func Allowed() error {
	//lint:allow ctxflow fixture: suppression on the flagged line's predecessor
	ctx := context.Background()
	return ctxAware(ctx)
}

// AllowedMultiline suppresses a finding two lines into a wrapped call:
// the directive above a multi-line simple statement covers the whole
// statement.
func AllowedMultiline() error {
	//lint:allow ctxflow fixture: directive above a multi-line statement
	err := ctxAware(
		context.TODO(),
	)
	return err
}

// ctxPassthrough mimics an observability carrier helper: ctx in, ctx out
// (the trace layer's ContextWithSpan shape).
func ctxPassthrough(ctx context.Context, tag string) context.Context {
	_ = tag
	return ctx
}

// ctxPassthroughMulti returns the carried context among other results
// (the StartTraceSpan shape).
func ctxPassthroughMulti(ctx context.Context, tag string) (string, context.Context) {
	return tag, ctx
}

// PassthroughDirect hands the callee a helper-wrapped ctx: silent.
func PassthroughDirect(ctx context.Context) error {
	return ctxAware(ctxPassthrough(ctx, "stage"))
}

// PassthroughRebound rebinds through a passthrough helper: silent.
func PassthroughRebound(ctx context.Context) error {
	ctx2 := ctxPassthrough(ctx, "stage")
	return ctxAware(ctx2)
}

// PassthroughMulti picks the context out of a multi-result helper: silent.
func PassthroughMulti(ctx context.Context) error {
	tag, ctx2 := ctxPassthroughMulti(ctx, "stage")
	_ = tag
	return ctxAware(ctx2)
}

// PassthroughLaundering feeds the helper a stored context instead of this
// function's: flagged — a passthrough cannot launder a dropped ctx.
func PassthroughLaundering(ctx context.Context, h holder) error {
	_ = ctx
	return ctxAware(ctxPassthrough(h.ctx, "stage"))
}

// warmAll mimics a ctx-taking worker-pool helper.
func warmAll(ctx context.Context, n int, warm func(int) error) error {
	for i := 0; i < n && ctx.Err() == nil; i++ {
		if err := warm(i); err != nil {
			return err
		}
	}
	return ctx.Err()
}

// WarmNoTwin has no Context variant at all: its single return hands a
// fresh root to a ctx-taking helper, so no caller can ever cancel the
// work: flagged (rule 1).
func WarmNoTwin(n int) error {
	return warmAll(context.Background(), n, func(int) error { return nil })
}
