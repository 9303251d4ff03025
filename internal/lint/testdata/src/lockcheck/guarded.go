// Package lockcheck seeds every guarded-field violation class: an
// explicit //lint:guard contract broken and honoured, a contract held
// through the wrong sibling mutex, the constructor (fresh allocation)
// exemption, the Locked-suffix convention from both sides, and a
// malformed directive.
package lockcheck

import "sync"

// counter carries explicit //lint:guard contracts.
type counter struct {
	mu   sync.Mutex
	n    int //lint:guard mu
	hits int //lint:guard mu
}

// Inc holds the contract: silent.
func (c *counter) Inc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// Peek reads n without the lock: flagged (explicit contract).
func (c *counter) Peek() int { return c.n }

// PeekAllowed documents why its unlocked read is fine: silent.
func (c *counter) PeekAllowed() int {
	return c.hits //lint:allow lockcheck racy sample read, metrics only
}

// NewCounter touches fields on a value it just allocated: silent.
func NewCounter() *counter {
	c := &counter{}
	c.n = 1
	c.hits = 0
	return c
}

// resetLocked is called with c.mu held by convention (name suffix), so
// its own accesses are silent.
func (c *counter) resetLocked() {
	c.n = 0
	c.hits = 0
}

// ResetOK calls the Locked helper with the lock held: silent.
func (c *counter) ResetOK() {
	c.mu.Lock()
	c.resetLocked()
	c.mu.Unlock()
}

// ResetBad calls the Locked helper without the lock: flagged.
func (c *counter) ResetBad() {
	c.resetLocked()
}

// badGuard's directive names a field that is not a mutex: flagged at
// the directive.
type badGuard struct {
	mu   sync.Mutex
	v    int //lint:guard lock
	lock int
}

func (b *badGuard) use() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.v + b.lock
}

// twoLocks guards n with mu; holding the sibling mutex other does not
// satisfy that contract.
type twoLocks struct {
	mu    sync.Mutex
	other sync.Mutex
	n     int //lint:guard mu
}

// wrongLock reads n under other only: flagged.
func (t *twoLocks) wrongLock() int {
	t.other.Lock()
	defer t.other.Unlock()
	return t.n
}

// rightLock reads n under mu: silent.
func (t *twoLocks) rightLock() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// rwGuarded proves RLock satisfies a read contract: silent.
type rwGuarded struct {
	mu   sync.RWMutex
	data map[string]int //lint:guard mu
}

func (r *rwGuarded) load(k string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.data[k]
}

func (r *rwGuarded) store(k string, v int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.data[k] = v
}
