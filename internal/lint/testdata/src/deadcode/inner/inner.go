// Package inner holds the deadcode fixture's cases. It is not a root
// package, so its exported names are reached only through references:
// Run from the root package's API, the io and sort methods only through
// interface conversions.
package inner

import (
	"io"
	"sort"
)

// Run is what the root package's API calls: everything it references is
// reached.
func Run() {
	helper()
	f := funcValue // a function value, never called here
	_ = f
	var c counter
	m := c.methodValue // a method value
	_ = m
	_, _ = io.ReadAll(reader{}) // converted to io.Reader in a call argument
	var w io.Writer
	w = &writer{} // converted to io.Writer in an assignment
	_ = w
	_ = newCloser()
	_ = identity(1) // an instantiated generic function
	var b box[string]
	b.get() // a method of an instantiated generic type
	sort.Sort(byLen(nil))
	reachedAnyway()
}

func helper() {}

func funcValue() {}

// unreferenced has no reference at all: flagged.
func unreferenced() {}

type counter struct{}

func (counter) methodValue() {}

// unusedMethod is never referenced: flagged.
func (counter) unusedMethod() {}

type reader struct{}

func (reader) Read(p []byte) (int, error) { return 0, io.EOF }

// extra is not in io.Reader, so the conversion does not reach it: flagged.
func (reader) extra() {}

type writer struct{}

func (*writer) Write(p []byte) (int, error) { return len(p), nil }

type closer struct{}

func (closer) Close() error { return nil }

// newCloser converts closer to io.Closer in a return.
func newCloser() io.Closer { return closer{} }

func identity[T any](x T) T { return x }

type box[T any] struct{ v T }

func (b box[T]) get() T { return b.v }

// put is a method of the generic type that nothing references: flagged.
func (b *box[T]) put(v T) { b.v = v }

// byLen reaches sort.Interface's methods through the conversion in
// sort.Sort.
type byLen []string

func (s byLen) Len() int           { return len(s) }
func (s byLen) Less(i, j int) bool { return len(s[i]) < len(s[j]) }
func (s byLen) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// table is a package-level initialiser: its references are roots.
var table = map[string]func(){"init": fromInitialiser}

func fromInitialiser() {}

func init() { fromInit() }

func fromInit() {}

// oracle is called only from tests.
//
//lint:allow deadcode test oracle: its helper stays reached
func oracle() { oracleHelper() }

func oracleHelper() {}

// reachedAnyway carries an allow that suppresses nothing: Run reaches it,
// so the directive is reported as unused.
//
//lint:allow deadcode stale
func reachedAnyway() {}

// chain reaches chainTail, but nothing reaches chain: both flagged.
func chain() { chainTail() }

func chainTail() {}
