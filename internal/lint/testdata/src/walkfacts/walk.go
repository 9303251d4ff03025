// Package walkfacts is the fixture for the shared summary walk's
// per-analyzer rules: a declaration-level allow zeroes only its own
// analyzer's facts, a site-level allow drops only its site, and deferred
// statements feed every fact except blocking and acquisition.
package walkfacts

import (
	"sync"
	"time"
)

// hotExempt is exempt from hotpath only: it loses the alloc fact and
// keeps the clock fact.
//
//lint:allow hotpath fixture: the exemption must not reach determinism's facts
func hotExempt() []int64 {
	return make([]int64, 0, int(time.Now().Unix()%4))
}

// detExempt is exempt from determinism only: it loses the clock fact
// and keeps the alloc fact.
//
//lint:allow determinism fixture: the exemption must not reach hotpath's facts
func detExempt() []int64 {
	return make([]int64, 0, int(time.Now().Unix()%4))
}

// deferUnlockClose only acquires directly; the deferred unlock and close
// run at exit and are no blocking fact.
func deferUnlockClose(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	defer mu.Unlock()
	defer close(ch)
}

// deferDone pairs its WaitGroup through a deferred Done.
func deferDone(wg *sync.WaitGroup) {
	defer wg.Done()
}

// allowedClose carries a site-level lockcheck allow: no blocking fact.
func allowedClose(ch chan int) {
	close(ch) //lint:allow lockcheck fixture: a site-level allow drops the site
}

// plainClose is the control: an unallowed close blocks.
func plainClose(ch chan int) {
	close(ch)
}
