package faultline

import "sync"

// BreakerState is a circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed passes calls through (normal operation).
	BreakerClosed BreakerState = iota
	// BreakerOpen sheds calls without attempting them.
	BreakerOpen
	// BreakerHalfOpen admits a single probe call; its outcome decides
	// whether the breaker closes again or re-opens.
	BreakerHalfOpen
)

// String names the state for scorecards and metrics.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Breaker is a count-based circuit breaker: it opens after Threshold
// consecutive failures, sheds the next Cooldown calls, then half-opens and
// admits one probe whose outcome decides between closing and re-opening.
//
// Both transitions advance on calls, never on wall-clock time, so a
// benchmark run that makes the same sequence of Allow/Record calls always
// sees the same breaker states — the property the chaos conformance suite
// depends on.
type Breaker struct {
	mu          sync.Mutex
	threshold   int
	cooldown    int
	state       BreakerState
	consecutive int // consecutive failures while closed
	shed        int // calls shed while open
	probing     bool
	opens       int64
}

// NewBreaker returns a closed breaker that opens after threshold
// consecutive failures and half-opens after shedding cooldown calls.
// threshold <= 0 disables the breaker (Allow always true); cooldown <= 0
// means the first shed call already half-opens.
func NewBreaker(threshold, cooldown int) *Breaker {
	return &Breaker{threshold: threshold, cooldown: cooldown}
}

// Allow reports whether the next call may proceed. While open it sheds,
// counting down the cooldown; when the cooldown is spent it half-opens and
// admits one probe. While half-open, only the single probe is in flight —
// further calls are shed until Record decides the probe's outcome.
func (b *Breaker) Allow() bool {
	if b == nil || b.threshold <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		b.shed++
		if b.shed >= b.cooldown {
			b.state = BreakerHalfOpen
			b.probing = false
		}
		return false
	case BreakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return true
}

// Record reports a call's outcome. A success closes a half-open breaker
// and resets the failure streak; a failure re-opens a half-open breaker or
// extends the streak, opening the breaker at the threshold.
func (b *Breaker) Record(ok bool) {
	if b == nil || b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.state = BreakerClosed
		b.consecutive = 0
		b.probing = false
		return
	}
	switch b.state {
	case BreakerHalfOpen:
		b.open()
	case BreakerClosed:
		b.consecutive++
		if b.consecutive >= b.threshold {
			b.open()
		}
	}
}

// open transitions to the open state. Caller holds the mutex.
func (b *Breaker) open() {
	b.state = BreakerOpen
	b.shed = 0
	b.consecutive = 0
	b.probing = false
	b.opens++
}

// State returns the breaker's current position.
func (b *Breaker) State() BreakerState {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Opens returns how many times the breaker has tripped open.
func (b *Breaker) Opens() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}
