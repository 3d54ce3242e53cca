package sim

import "iter"

// This file is the kernel↔process handoff layer (PR 9). A Proc's body runs
// on a coroutine; every dispatch is a transfer into it
// (coroHandle.transferIn) and every block a transfer out
// (coroHandle.transferOut). The handle hand-rolls the handoff *protocol* —
// loop, idle park, cancellation unwind — in one place with a minimal
// contract, so the scheduler never touches resume plumbing directly and
// the raw cost of the layer is measurable on its own (ResumeRoundTrips,
// bench/'s sim.resume_ns row).
//
// Why the transfers still ride iter.Pull rather than raw
// runtime.coroswitch: the obvious endgame — pull-linkname
// runtime.newcoro/runtime.coroswitch and drop iter.Pull's per-transfer
// bookkeeping — is hard-blocked by the Go ≥1.23 linker. Both symbols are
// in cmd/link's blockedLinknames allowlist, restricted to package iter
// ("runtime.coroswitch": {"iter"}), and the check cannot be disabled
// without -ldflags=-checklinkname=0 on every build, which a plain
// `go build ./...` (the tier-1 gate) would not carry. iter.Pull is
// therefore the only sanctioned route to the runtime's coroutines; on
// non-race builds its race annotations compile out and the residual
// per-transfer overhead over a bare coroswitch is the state-flag protocol
// (done/yieldNext checks) plus one indirect closure call each way. The
// structural wins live above this layer instead: the pause() fast path
// and the host chain's in-place handoff already cut switches per
// protocol bit to ~1.0 (the alternation lower bound).
//
// The handle's contract:
//
//	active()      the coroutine exists (and is parked in a transferOut)
//	start(fn)     create the coroutine; fn runs at the first transferIn
//	transferIn()  kernel side → body side
//	transferOut() body side → kernel side; false means the kernel
//	              cancelled the coroutine and the body must unwind
//	cancel()      unwind a parked coroutine: the in-flight transferOut
//	              returns false, the body unwinds (procAbort), loop
//	              returns and the goroutine exits before cancel returns
//	drop()        forget the coroutine (it has exited or is exiting)
type coroHandle struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

func (h *coroHandle) active() bool { return h.next != nil }

// start creates the coroutine; fn does not run until the first
// transferIn. Cold path: once per process lifetime — recycled procs keep
// their coroutine parked in loop's idle transferOut between runs.
func (h *coroHandle) start(fn func()) {
	h.next, h.stop = iter.Pull(iter.Seq[struct{}](func(y func(struct{}) bool) {
		h.yield = y
		fn()
	}))
}

// transferIn switches from the kernel side into the body side. It returns
// when the body blocks (transferOut) or its function returns.
//
//mes:allocfree
func (h *coroHandle) transferIn() {
	h.next()
}

// transferOut switches from the body side back to the kernel side and
// parks until the next transferIn. It reports false when the kernel
// cancelled the coroutine while it was parked; the body must then unwind
// promptly — the cancelling side is blocked until the coroutine's
// function returns.
//
//mes:allocfree
func (h *coroHandle) transferOut() bool {
	return h.yield(struct{}{})
}

// cancel unwinds a coroutine parked in transferOut (or not yet resumed):
// the parked transferOut returns false, the body unwinds and the
// coroutine exits before cancel returns.
func (h *coroHandle) cancel() {
	h.stop()
}

// drop forgets an exited (or exiting) coroutine.
func (h *coroHandle) drop() {
	h.next, h.stop, h.yield = nil, nil, nil
}

// ResumeRoundTrips performs n raw handoff round trips on a standalone
// coroutine — the resume layer alone, with no kernel, events, heap or
// timing model. It is the workload behind BenchmarkResumeRoundTrip and
// bench/'s sim.resume_ns row: its delta against the context-switch row
// is the scheduling work (schedule, pop, delivery) per kernel round trip.
func ResumeRoundTrips(n int) {
	var h coroHandle
	h.start(func() {
		for h.transferOut() {
		}
	})
	for i := 0; i < n; i++ {
		h.transferIn()
	}
	h.cancel()
	h.drop()
}
