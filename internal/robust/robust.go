// Package robust is the fault-tolerance layer of the solve pipeline:
// a typed error taxonomy (panics captured with their stacks, soundness
// violations, corrupted user input), panic-capture helpers, retry
// budget schedules and test-only failpoints for fault injection.
//
// The error taxonomy draws a deliberate boundary through the code
// base:
//
//   - Programmer errors stay panics. Misuse of an in-process API with
//     preconditions the caller controls — sat.Lit with a zero DIMACS
//     literal, graph.AddEdge with an out-of-range vertex, an encoding
//     emitting the wrong cube count — indicates a bug in this module
//     or its embedding program, and panicking at the violation is the
//     fastest route to the broken call site.
//
//   - Input errors are errors. Anything parsed from a file or a flag
//     (DIMACS graphs and formulas, netlists, routings, benchmark
//     registries) must never be able to crash the process, no matter
//     how corrupted; parse paths validate before constructing and wrap
//     failures as *InputError with source context.
//
//   - Crashes of supervised work become *PanicError. Portfolio lanes,
//     width-search probes and facade Session solves run under
//     recover(); a panic there is converted into a typed error
//     carrying the captured stack, so one misbehaving lane degrades
//     the portfolio instead of killing the service.
//
//   - Lies become *SoundnessError. When answer self-checking
//     ("paranoid mode") catches a Sat answer violating a conflict
//     edge, or an Unsat answer contradicted by a replay, the failure
//     names the guilty strategy and is never silently masked by a
//     faster lane.
package robust

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// PanicError is a panic captured at a supervision boundary (portfolio
// lane, width-search probe, Session solve): the panic value, the stack
// at the point of the panic, and the operation that was running.
type PanicError struct {
	// Op names the supervised operation, e.g.
	// "portfolio lane ITE-linear-2+muldirect/s1".
	Op string
	// Value is the value the goroutine panicked with.
	Value any
	// Stack is the debug.Stack() capture taken inside recover().
	Stack []byte
}

// NewPanicError captures the current stack and wraps a recovered panic
// value. Call it inside a recover() block.
func NewPanicError(op string, value any) *PanicError {
	return &PanicError{Op: op, Value: value, Stack: debug.Stack()}
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("robust: panic in %s: %v", e.Op, e.Value)
}

// Unwrap exposes a wrapped error panic value (panic(err)) to
// errors.Is/As chains.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Capture runs fn and converts a panic into a *PanicError; all other
// outcomes (including errors fn reports through its own channels)
// return nil. Use it to supervise one unit of work whose resources —
// e.g. a pooled solver — must not be recycled after a crash:
//
//	if perr := robust.Capture("solve", func() { res = doSolve() }); perr != nil {
//		return perr // solver abandoned, not returned to the pool
//	}
//	pool.Put(solver)
func Capture(op string, fn func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = NewPanicError(op, p)
		}
	}()
	fn()
	return nil
}

// SoundnessError reports that answer self-checking caught a definite
// answer that fails independent verification: a Sat answer whose
// decoded coloring violates a conflict edge, or an Unsat answer
// contradicted by a verified replay. It names the strategy so the
// unsound encoding is identifiable from the error alone.
type SoundnessError struct {
	// Strategy is the name of the (encoding, symmetry) strategy whose
	// answer failed verification.
	Strategy string
	// Claim is the answer that failed the check: "Sat" or "Unsat".
	Claim string
	// Err is the underlying verification failure.
	Err error
}

func (e *SoundnessError) Error() string {
	return fmt.Sprintf("robust: strategy %s reported %s but the answer fails verification: %v",
		e.Strategy, e.Claim, e.Err)
}

func (e *SoundnessError) Unwrap() error { return e.Err }

// InputError wraps a failure to parse or validate user-supplied input
// (benchmark registries, netlists, graphs) with its source context.
type InputError struct {
	// Source describes the input, e.g. a file path or format name.
	Source string
	// Line is the 1-based source line of the failure, 0 if unknown.
	Line int
	// Err is the underlying parse or validation failure.
	Err error
}

func (e *InputError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("%s: line %d: %v", e.Source, e.Line, e.Err)
	}
	return fmt.Sprintf("%s: %v", e.Source, e.Err)
}

func (e *InputError) Unwrap() error { return e.Err }

// AsPanic reports whether err has a *PanicError in its chain,
// returning it if so.
func AsPanic(err error) (*PanicError, bool) {
	var pe *PanicError
	if errors.As(err, &pe) {
		return pe, true
	}
	return nil, false
}

// AsSoundness reports whether err has a *SoundnessError in its chain,
// returning it if so.
func AsSoundness(err error) (*SoundnessError, bool) {
	var se *SoundnessError
	if errors.As(err, &se) {
		return se, true
	}
	return nil, false
}

// RetryBudget returns the conflict budget of the given retry attempt
// (0-based): base scaled by the Luby sequence (1, 1, 2, 1, 1, 2, 4,
// ...), the universal schedule that is within a log factor of optimal
// when the required budget is unknown. A non-positive base returns 0
// (no budget — the attempt is bounded only by its context).
func RetryBudget(base int64, attempt int) int64 {
	if base <= 0 {
		return 0
	}
	return base * luby(attempt+1)
}

// luby returns the i-th element (1-based) of the Luby sequence
// 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...
func luby(i int) int64 {
	// Find the subsequence 2^k - 1 >= i, then recurse or return.
	for k := 1; ; k++ {
		pow := int64(1)<<uint(k) - 1
		if int64(i) == pow {
			return int64(1) << uint(k-1)
		}
		if int64(i) < pow {
			return luby(i - int(int64(1)<<uint(k-1)) + 1)
		}
	}
}
