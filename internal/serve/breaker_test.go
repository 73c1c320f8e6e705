package serve

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"fpgasat/internal/core"
	"fpgasat/internal/portfolio"
	"fpgasat/internal/robust"
	"fpgasat/internal/sat"
)

// newTestBreaker builds a breaker on an adjustable fake clock.
func newTestBreaker(threshold int, base, max time.Duration) (*breaker, *time.Time) {
	now := time.Unix(1000, 0)
	var states []int64
	b := newBreaker(threshold, base, max, 42, func(s int64) { states = append(states, s) })
	b.now = func() time.Time { return now }
	return b, &now
}

func TestBreakerTripsAfterThreshold(t *testing.T) {
	b, _ := newTestBreaker(3, time.Second, time.Minute)
	for i := 0; i < 2; i++ {
		if ok, _, _ := b.allow(); !ok {
			t.Fatalf("closed breaker denied admission after %d failures", i)
		}
		b.onResult(true, false)
	}
	// A success resets the consecutive-failure count.
	b.onResult(false, false)
	for i := 0; i < 2; i++ {
		b.onResult(true, false)
	}
	if b.current() != breakerClosed {
		t.Fatal("breaker tripped before reaching the threshold of consecutive failures")
	}
	b.onResult(true, false)
	if b.current() != breakerOpen {
		t.Fatal("breaker still closed after threshold consecutive failures")
	}
	ok, _, retry := b.allow()
	if ok {
		t.Fatal("open breaker admitted a submit inside the backoff")
	}
	// Jittered backoff lands in [base/2, base].
	if retry < time.Second/2 || retry > time.Second {
		t.Errorf("retryAfter %v outside the jitter window [0.5s, 1s]", retry)
	}
}

func TestBreakerHalfOpenProbeAndReclose(t *testing.T) {
	b, now := newTestBreaker(1, time.Second, time.Minute)
	b.onResult(true, false)
	if b.current() != breakerOpen {
		t.Fatal("threshold-1 breaker did not trip on first failure")
	}

	// Backoff elapsed: the next allow admits exactly one probe.
	*now = now.Add(2 * time.Second)
	ok, probe, _ := b.allow()
	if !ok || !probe {
		t.Fatalf("allow after backoff = (%v, %v), want an admitted probe", ok, probe)
	}
	if b.current() != breakerHalfOpen {
		t.Fatal("breaker not half-open while probing")
	}
	if ok, _, _ := b.allow(); ok {
		t.Fatal("second submit admitted while a probe is in flight")
	}

	// Probe succeeds: closed again, backoff reset.
	b.onResult(false, true)
	if b.current() != breakerClosed {
		t.Fatal("breaker did not re-close on probe success")
	}
	if b.backoff != time.Second {
		t.Errorf("backoff %v after re-close, want reset to base", b.backoff)
	}
}

func TestBreakerProbeFailureDoublesBackoff(t *testing.T) {
	b, now := newTestBreaker(1, time.Second, 3*time.Second)
	b.onResult(true, false)
	for i, wantBackoff := range []time.Duration{2 * time.Second, 3 * time.Second, 3 * time.Second} {
		*now = now.Add(time.Minute)
		ok, probe, _ := b.allow()
		if !ok || !probe {
			t.Fatalf("round %d: probe not admitted", i)
		}
		b.onResult(true, true)
		if b.current() != breakerOpen {
			t.Fatalf("round %d: breaker not open after failed probe", i)
		}
		// Doubled each round, capped at max.
		if b.backoff != wantBackoff {
			t.Errorf("round %d: backoff %v, want %v", i, b.backoff, wantBackoff)
		}
	}
}

func TestBreakerReleaseProbe(t *testing.T) {
	b, now := newTestBreaker(1, time.Second, time.Minute)
	b.onResult(true, false)
	*now = now.Add(2 * time.Second)
	if ok, probe, _ := b.allow(); !ok || !probe {
		t.Fatal("probe not admitted after backoff")
	}
	// The probe job was shed before solving: releasing it lets the next
	// submit probe instead of deadlocking the half-open state.
	b.releaseProbe()
	if ok, probe, _ := b.allow(); !ok || !probe {
		t.Fatal("next submit after releaseProbe was not admitted as probe")
	}
}

func TestBreakerIgnoresStaleResults(t *testing.T) {
	b, _ := newTestBreaker(2, time.Second, time.Minute)
	b.onResult(true, false)
	b.onResult(true, false)
	if b.current() != breakerOpen {
		t.Fatal("breaker did not trip")
	}
	// A pre-trip straggler reporting success while open must not close
	// the breaker without a probe.
	b.onResult(false, false)
	if b.current() != breakerOpen {
		t.Fatal("stale non-probe success closed an open breaker")
	}
}

// TestSupervisionFailure pins which finished runs feed a shard's
// breaker: lane panics, soundness violations and watchdog abandonments
// do; deadline expiry and budget exhaustion are healthy overload and
// do not.
func TestSupervisionFailure(t *testing.T) {
	panicked := robust.NewPanicError("portfolio lane x", "boom")
	abandoned := fmt.Errorf("portfolio: lane x unresponsive for 1s after cancellation; %w", portfolio.ErrAbandoned)
	undecided := errors.New("portfolio: no strategy answered within the timeout")
	unknown := portfolio.Result{Attempts: 1}
	for _, tc := range []struct {
		name string
		err  error
		all  []portfolio.Result
		want bool
	}{
		{"lane panic", nil, []portfolio.Result{unknown, {Err: panicked}}, true},
		{"run panic", fmt.Errorf("portfolio: strategy x failed: %w", panicked), nil, true},
		{"soundness", fmt.Errorf("portfolio: %w", &robust.SoundnessError{Strategy: "x", Claim: "Sat", Err: undecided}), nil, true},
		{"abandoned", undecided, []portfolio.Result{unknown, {Err: abandoned}}, true},
		{"deadline only", undecided, []portfolio.Result{unknown, unknown}, false},
		{"budget exhausted", undecided, []portfolio.Result{{Attempts: 4}}, false},
		{"answered", nil, []portfolio.Result{{Solved: core.Solved{Status: sat.Unsat}, Attempts: 1}, unknown}, false},
	} {
		if got := supervisionFailure(tc.err, tc.all); got != tc.want {
			t.Errorf("%s: supervisionFailure = %v, want %v", tc.name, got, tc.want)
		}
	}
}
