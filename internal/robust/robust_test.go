package robust

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCaptureConvertsPanic(t *testing.T) {
	err := Capture("test op", func() { panic("boom") })
	pe, ok := AsPanic(err)
	if !ok {
		t.Fatalf("Capture returned %T, want *PanicError", err)
	}
	if pe.Op != "test op" || pe.Value != "boom" {
		t.Fatalf("captured %+v", pe)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("no stack captured")
	}
	if !strings.Contains(pe.Error(), "test op") || !strings.Contains(pe.Error(), "boom") {
		t.Fatalf("message %q lacks op or value", pe.Error())
	}
}

func TestCapturePassesThroughSuccess(t *testing.T) {
	ran := false
	if err := Capture("ok", func() { ran = true }); err != nil || !ran {
		t.Fatalf("err=%v ran=%v", err, ran)
	}
}

func TestPanicErrorUnwrapsErrorValue(t *testing.T) {
	sentinel := errors.New("sentinel")
	err := Capture("op", func() { panic(sentinel) })
	if !errors.Is(err, sentinel) {
		t.Fatalf("panic(err) not unwrappable: %v", err)
	}
}

func TestSoundnessError(t *testing.T) {
	inner := errors.New("edge {1,2} monochromatic")
	err := fmt.Errorf("portfolio: %w", &SoundnessError{Strategy: "direct/-", Claim: "Sat", Err: inner})
	se, ok := AsSoundness(err)
	if !ok {
		t.Fatal("SoundnessError not found in chain")
	}
	if se.Strategy != "direct/-" || !errors.Is(err, inner) {
		t.Fatalf("got %+v", se)
	}
	if !strings.Contains(se.Error(), "direct/-") || !strings.Contains(se.Error(), "Sat") {
		t.Fatalf("message %q lacks strategy or claim", se.Error())
	}
}

func TestInputError(t *testing.T) {
	err := &InputError{Source: "bench.reg", Line: 7, Err: errors.New("bad seed")}
	if got := err.Error(); !strings.Contains(got, "bench.reg") || !strings.Contains(got, "line 7") {
		t.Fatalf("message %q lacks context", got)
	}
	if (&InputError{Source: "x", Err: errors.New("y")}).Error() != "x: y" {
		t.Fatal("line-less format")
	}
}

func TestLubySequence(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(i + 1); got != w {
			t.Fatalf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestRetryScheduleBudget(t *testing.T) {
	if got := RetryBudget(100, 2); got != 200 {
		t.Fatalf("luby attempt 2: %d", got)
	}
	if got := RetryBudget(0, 5); got != 0 {
		t.Fatalf("zero base must stay unbudgeted: %d", got)
	}
}

func TestFailpointLifecycle(t *testing.T) {
	const fp = "test.failpoint"
	Hit(fp, "no handler") // no-op

	var mu sync.Mutex
	var seen []any
	SetFailpoint(fp, func(args ...any) {
		mu.Lock()
		defer mu.Unlock()
		seen = append(seen, args...)
	})
	t.Cleanup(func() { ClearFailpoint(fp) })

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			Hit(fp, i)
		}(i)
	}
	wg.Wait()
	mu.Lock()
	n := len(seen)
	mu.Unlock()
	if n != 8 {
		t.Fatalf("handler saw %d hits, want 8", n)
	}

	ClearFailpoint(fp)
	Hit(fp, "cleared") // no-op again
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 8 {
		t.Fatal("cleared failpoint still firing")
	}
}

func TestFailpointPanicPropagates(t *testing.T) {
	const fp = "test.failpoint.panic"
	SetFailpoint(fp, func(args ...any) { panic("injected") })
	t.Cleanup(func() { ClearFailpoint(fp) })
	err := Capture("op", func() { Hit(fp) })
	if _, ok := AsPanic(err); !ok {
		t.Fatalf("injected panic not captured: %v", err)
	}
}
