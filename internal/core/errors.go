package core

import (
	"errors"
	"fmt"
)

// Typed error taxonomy for transmission failures. Every failure Run and
// Session.RunConfig can produce is matchable with errors.Is against one
// of the sentinels below, and the concrete error types carry the
// diagnosis (wait-for snapshots, crash counts) that the untyped strings
// they replace could not. The rendered strings of the pre-existing
// failure modes are preserved byte-for-byte, so sweep outputs that embed
// err.Error() (ablation tables, registry goldens) are unchanged.
var (
	// ErrDeadlock matches trials whose kernel run stalled: every live
	// process was blocked with no event pending. The concrete error is a
	// *DeadlockError carrying a wait-for snapshot.
	ErrDeadlock = errors.New("core: transmission stalled")
	// ErrCrashed matches trials that lost a process to an injected
	// mid-trial crash (sim fault plane). The concrete error is a
	// *CrashError.
	ErrCrashed = errors.New("core: process crashed mid-trial")
	// ErrSyncLoss matches Recover-mode trials whose decoder never
	// achieved symbol lock: the initial preamble and every resync
	// preamble failed to calibrate.
	ErrSyncLoss = errors.New("core: synchronization lost beyond recovery")
	// ErrCalibration matches decoder calibration failures; the decoder
	// wraps it with the reason.
	ErrCalibration = errors.New("core: decoder calibration failed")
)

// DeadlockError reports a stalled transmission with the machine's
// wait-for snapshot ("proc→resource", one entry per blocked process)
// captured before the blocked coroutines were unwound. It matches
// ErrDeadlock and unwraps to the kernel's *sim.DeadlockError.
type DeadlockError struct {
	cause   error
	Waiters []string
}

func (e *DeadlockError) Error() string {
	// Byte-identical to the fmt.Errorf("core: transmission stalled: %w")
	// string this type replaced.
	return "core: transmission stalled: " + e.cause.Error()
}

func (e *DeadlockError) Unwrap() error { return e.cause }

func (e *DeadlockError) Is(target error) bool { return target == ErrDeadlock }

// CrashError reports that the fault plane crashed one or more of the
// trial's processes. It matches ErrCrashed. Recovery cannot resurrect a
// dead process, so a crash fails the trial under every configuration;
// the fault sweep scores it as a coin-flip channel (BER 0.5).
type CrashError struct {
	Crashes uint64
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("core: process crashed mid-trial (%d injected crash(es))", e.Crashes)
}

func (e *CrashError) Is(target error) bool { return target == ErrCrashed }

// SyncLossError reports that a Recover-mode trial never achieved symbol
// lock: neither the initial preamble nor any resync preamble produced
// separated levels. It matches ErrSyncLoss. Preambles counts how many
// lock opportunities were tried.
type SyncLossError struct {
	Preambles int
}

func (e *SyncLossError) Error() string {
	return fmt.Sprintf("core: synchronization lost beyond recovery (%d preamble(s) failed to lock)", e.Preambles)
}

func (e *SyncLossError) Is(target error) bool { return target == ErrSyncLoss }
