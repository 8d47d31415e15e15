package checkpoint

import (
	"errors"
	"fmt"
	"math"
)

// DefaultEvery is the capture interval (in input symbols) used when a
// Runner's Every is zero: frequent enough that a crash loses well under a
// second of simulated stream, rare enough that the O(frontier-words) copy
// plus one fsync'd file write stays invisible next to the step kernel.
const DefaultEvery = 8192

// ErrCrashInjected is returned by Runner.Check when the chaos hook fires:
// the soak harness's stand-in for a process kill at a seeded point. A
// process-level harness (apsim) converts it into a hard exit; in-process
// tests treat the run as dead and resume from the store.
var ErrCrashInjected = errors.New("checkpoint: injected crash")

// Runner bundles a Store with one named checkpoint stream and its capture
// policy. Executors call Due at each loop position (or only at the
// positions Next names), Save with the encoded state when it is, and Check
// to give the chaos hook a kill point.
type Runner struct {
	// Store is the backing store (any Store implementation — a DirStore
	// or a replicated wrapper); nil disables checkpointing (every method
	// degrades to a no-op, so executors need no nil-guards).
	Store Store
	// Name is the checkpoint stream name within the store (one per
	// executor run that shares it, e.g. "spap").
	Name string
	// Every is the capture interval in input symbols (0 = DefaultEvery).
	Every int64
	// CrashAt, when non-nil, is polled with each loop position; returning
	// true injects a crash (ErrCrashInjected) at that point. Wired to
	// fault.Injector.CrashAt by callers — the checkpoint package stays
	// free of the fault package to keep the dependency graph acyclic.
	CrashAt func(pos int64) bool
}

// every returns the effective capture interval.
func (r *Runner) every() int64 {
	if r == nil || r.Every <= 0 {
		return DefaultEvery
	}
	return r.Every
}

// Enabled reports whether checkpointing is active.
func (r *Runner) Enabled() bool { return r != nil && r.Store != nil }

// Due reports whether a capture should happen before processing pos.
// Position 0 is never due (there is nothing to save yet).
func (r *Runner) Due(pos int64) bool {
	return r.Enabled() && pos > 0 && pos%r.every() == 0
}

// Next returns the first loop position ≥ pos at which the runner needs
// control — a capture is Due or the chaos hook wants polling — so a
// streaming loop pays one integer compare per symbol and calls Due and
// Check only there. The chaos hook is polled at every position; a runner
// with neither store nor hook (or a nil one) never needs control.
func (r *Runner) Next(pos int64) int64 {
	switch {
	case r == nil:
		return math.MaxInt64
	case r.CrashAt != nil:
		return pos
	case r.Store == nil:
		return math.MaxInt64
	}
	every := r.every()
	if pos <= 0 {
		return every
	}
	return (pos + every - 1) / every * every
}

// Check polls the chaos hook at pos, returning ErrCrashInjected on a hit.
// Active even when Store is nil so fault-plan runs without -checkpoint
// still crash (and then fail to resume, which is the point of the flag).
func (r *Runner) Check(pos int64) error {
	if r == nil || r.CrashAt == nil {
		return nil
	}
	if r.CrashAt(pos) {
		return fmt.Errorf("%w at position %d", ErrCrashInjected, pos)
	}
	return nil
}

// Save persists payload under the runner's name. No-op when disabled.
func (r *Runner) Save(version uint32, payload []byte) error {
	if !r.Enabled() {
		return nil
	}
	return r.Store.Save(r.Name, version, payload)
}

// Load returns the newest valid checkpoint, or ErrNoCheckpoint. When
// disabled it reports ErrNoCheckpoint so resume paths fall through to a
// fresh start.
func (r *Runner) Load() (payload []byte, version uint32, fellback bool, err error) {
	if !r.Enabled() {
		return nil, 0, false, ErrNoCheckpoint
	}
	return r.Store.Load(r.Name)
}
