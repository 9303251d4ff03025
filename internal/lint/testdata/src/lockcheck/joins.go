package lockcheck

// lockOneBranch takes the lock on one branch only. At the join the lock
// is not held on every path, and the must-held analysis reports only
// locks that are, so the send is silent.
func (b *buf) lockOneBranch(c bool, ch chan int) {
	if c {
		b.mu.Lock()
	} else {
		ch = make(chan int, 1)
	}
	ch <- 1
	if c {
		b.mu.Unlock()
	}
}

// lockBothBranches takes the lock on both branches. It is held at the
// join, so the send is flagged.
func (b *buf) lockBothBranches(c bool, ch chan int) {
	if c {
		b.mu.Lock()
	} else {
		b.mu.Lock()
	}
	ch <- 1
	b.mu.Unlock()
}

// reenter holds b.mu and calls a helper that locks b.mu again: flagged
// as lock-class reentry at the call.
func (b *buf) reenter() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.clear()
}

// clear locks b.mu itself.
func (b *buf) clear() {
	b.mu.Lock()
	b.waiters = nil
	b.mu.Unlock()
}
