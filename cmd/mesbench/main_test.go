package main

import (
	"errors"
	"fmt"
	"testing"

	"mes/internal/core"
)

// TestFailureMessage pins the exit classification: each typed trial error
// keeps its message through two layers of %w wrapping (trial context,
// then runner.Map), and any other error prints as itself.
func TestFailureMessage(t *testing.T) {
	wrap := func(err error) error {
		return fmt.Errorf("fig9a: %w", fmt.Errorf("trial 3: %w", err))
	}
	cases := []struct {
		err    error
		prefix string
	}{
		{core.ErrCrashed, "trial lost a process to an injected crash: "},
		{core.ErrDeadlock, "trial deadlocked: "},
		{core.ErrSyncLoss, "trial lost symbol sync beyond recovery: "},
		{core.ErrCalibration, "decoder calibration failed: "},
	}
	for _, c := range cases {
		err := wrap(c.err)
		if got, want := failureMessage(err), c.prefix+err.Error(); got != want {
			t.Errorf("failureMessage(%v)\n got %q\nwant %q", c.err, got, want)
		}
	}
	plain := wrap(errors.New("bad option"))
	if got, want := failureMessage(plain), plain.Error(); got != want {
		t.Errorf("untyped error: got %q, want %q", got, want)
	}
}
