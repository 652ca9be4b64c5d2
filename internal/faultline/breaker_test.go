package faultline

import "testing"

// step is one Allow/Record interaction with the breaker and the state
// expected after it.
type step struct {
	// op: "allow" checks Allow() == want and the state after; "ok"/"fail"
	// call Record and check the state after.
	op    string
	want  bool // for allow: expected verdict
	state BreakerState
}

// TestBreakerStateMachine walks the closed→open→half-open→closed cycle and
// its branches through scripted call sequences.
func TestBreakerStateMachine(t *testing.T) {
	cases := []struct {
		name                string
		threshold, cooldown int
		steps               []step
	}{
		{
			name: "opens after threshold consecutive failures", threshold: 2, cooldown: 2,
			steps: []step{
				{op: "fail", state: BreakerClosed},
				{op: "fail", state: BreakerOpen},
			},
		},
		{
			name: "success resets the failure streak", threshold: 2, cooldown: 2,
			steps: []step{
				{op: "fail", state: BreakerClosed},
				{op: "ok", state: BreakerClosed},
				{op: "fail", state: BreakerClosed},
				{op: "fail", state: BreakerOpen},
			},
		},
		{
			name: "full cycle: open, shed through cooldown, probe closes", threshold: 1, cooldown: 2,
			steps: []step{
				{op: "fail", state: BreakerOpen},
				{op: "allow", want: false, state: BreakerOpen},     // shed 1 of 2
				{op: "allow", want: false, state: BreakerHalfOpen}, // shed 2 of 2 → half-open
				{op: "allow", want: true, state: BreakerHalfOpen},  // the probe
				{op: "ok", state: BreakerClosed},
				{op: "allow", want: true, state: BreakerClosed},
			},
		},
		{
			name: "failed probe re-opens", threshold: 1, cooldown: 1,
			steps: []step{
				{op: "fail", state: BreakerOpen},
				{op: "allow", want: false, state: BreakerHalfOpen},
				{op: "allow", want: true, state: BreakerHalfOpen},
				{op: "fail", state: BreakerOpen},
				{op: "allow", want: false, state: BreakerHalfOpen},
				{op: "allow", want: true, state: BreakerHalfOpen},
				{op: "ok", state: BreakerClosed},
			},
		},
		{
			name: "half-open admits only one probe at a time", threshold: 1, cooldown: 0,
			steps: []step{
				{op: "fail", state: BreakerOpen},
				{op: "allow", want: false, state: BreakerHalfOpen},
				{op: "allow", want: true, state: BreakerHalfOpen},
				{op: "allow", want: false, state: BreakerHalfOpen}, // second caller shed
				{op: "ok", state: BreakerClosed},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBreaker(tc.threshold, tc.cooldown)
			for i, s := range tc.steps {
				switch s.op {
				case "allow":
					if got := b.Allow(); got != s.want {
						t.Fatalf("step %d: Allow() = %v, want %v", i, got, s.want)
					}
				case "ok":
					b.Record(true)
				case "fail":
					b.Record(false)
				}
				if got := b.State(); got != s.state {
					t.Fatalf("step %d (%s): state = %v, want %v", i, s.op, got, s.state)
				}
			}
		})
	}
}

func TestBreakerOpensCount(t *testing.T) {
	b := NewBreaker(1, 0)
	if b.Opens() != 0 {
		t.Fatalf("fresh breaker Opens = %d", b.Opens())
	}
	b.Record(false) // open #1
	b.Allow()       // → half-open
	b.Allow()       // probe
	b.Record(false) // re-open: open #2
	if b.Opens() != 2 {
		t.Fatalf("Opens = %d, want 2", b.Opens())
	}
}

func TestBreakerStateStrings(t *testing.T) {
	for s, want := range map[BreakerState]string{
		BreakerClosed:   "closed",
		BreakerOpen:     "open",
		BreakerHalfOpen: "half-open",
		BreakerState(9): "unknown",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}
