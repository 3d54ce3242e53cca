package osmodel

import (
	"errors"
	"fmt"

	"mes/internal/kobj"
	"mes/internal/sim"
	"mes/internal/timing"
	"mes/internal/vfs"
)

// Wait results, mirroring WaitForSingleObject return values.
const (
	WaitObject0 = 0   // the object was signalled/acquired
	WaitTimeout = 258 // the wait interval elapsed (WAIT_TIMEOUT)
)

// Infinite requests an unbounded wait.
const Infinite sim.Duration = -1

// Errors returned by the syscall layer.
var (
	ErrBadHandle = errors.New("osmodel: invalid handle")
	ErrBadFd     = errors.New("osmodel: bad file descriptor")
	ErrWrongType = errors.New("osmodel: handle refers to an object of another type")
	// ErrTimedOut reports that a blocking syscall was force-timed-out by
	// the trial watchdog (System.TimeoutBlocked): its wake was lost or
	// its peer crashed, and waiting longer could not succeed.
	ErrTimedOut = errors.New("osmodel: blocked wait timed out")
)

// Proc is a simulated OS process: a simulation process plus its
// process-level tables (handle table, fd table) and isolation domain.
// All methods must be called from within the process body.
type Proc struct {
	sys  *System
	dom  *Domain
	name string
	sp   *sim.Proc
	rng  *sim.RNG

	// body is the current spawn's entry point; bodyFn is the reusable
	// trampoline handed to the sim kernel (built once per structure, see
	// System.Spawn).
	body   func(*Proc)
	bodyFn func(*sim.Proc)

	handles *kobj.HandleTable
	fds     *vfs.FDTable

	// hcross/fdcross cache, per handle and per descriptor, whether ops on
	// the referenced object/file cross an isolation boundary. The bit is
	// fixed at insert time (an object's home domain is registered when it
	// is created, and creation precedes every open), so per-op charging
	// indexes a slice instead of hashing an interface key into the home
	// maps.
	hcross  []bool
	fdcross []bool

	blocked    bool
	blockStart sim.Time

	// Wait context: which resource the process is currently parked on.
	// Set at each enqueue site, cleared on every park return. The crash
	// unwind path (parkUnwind) and the trial watchdog (TimeoutBlocked)
	// use it to dequeue the process so an injected crash or forced
	// timeout never leaves a ghost waiter in a kernel-object or inode
	// wait queue.
	waitObj  kobj.Object
	waitIn   *vfs.Inode
	waitFile *vfs.File
	waitRv   *Rendezvous

	// POSIX-style signal state (see signal.go).
	pendingSignals map[int]int
	sigWaiting     int
}

// WaiterName implements kobj.Waiter and vfs.Waiter.
func (p *Proc) WaiterName() string { return p.name }

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// Domain returns the process's isolation domain.
func (p *Proc) Domain() *Domain { return p.dom }

// System returns the owning machine.
func (p *Proc) System() *System { return p.sys }

// Now returns the current virtual time.
func (p *Proc) Now() sim.Time { return p.sp.Now() }

// Rand returns the process's private random stream.
func (p *Proc) Rand() *sim.RNG { return p.rng }

// Handles exposes the process handle table (tests, diagnostics).
func (p *Proc) Handles() *kobj.HandleTable { return p.handles }

// FDs exposes the process descriptor table.
func (p *Proc) FDs() *vfs.FDTable { return p.fds }

// Sleep suspends the process; the timing model adds wake-up latency, the
// platform sleep floor and constraint-state outliers.
func (p *Proc) Sleep(d sim.Duration) { p.sp.Sleep(d) }

// Compute burns CPU for roughly d (plus model jitter).
func (p *Proc) Compute(d sim.Duration) { p.sp.Exec(d) }

// Timestamp reads the high-resolution clock (a priced operation) and
// returns the instant after the read.
func (p *Proc) Timestamp() sim.Time {
	p.exec(timing.OpTimestamp)
	return p.Now()
}

// Judge charges the cost of the per-bit decision branch.
func (p *Proc) Judge() { p.exec(timing.OpJudge) }

// MarkBit tells the kernel that the window for the next transmitted
// symbol starts now (see sim.Kernel.MarkWindow). The sender calls it once
// per symbol at the top of its per-bit loop.
//
//mes:allocfree
func (p *Proc) MarkBit() { p.sys.k.MarkWindow() }

// ChargeOp charges the cost of one priced operation without any semantic
// effect. The channel layer uses it for protocol-shaped overhead the
// object model does not execute literally (e.g. the Semaphore channel's
// 6-instruction P-P-S-sleep-V-V bit, paper §V.C).
func (p *Proc) ChargeOp(op timing.Op) { p.exec(op) }

// exec charges a priced operation.
func (p *Proc) exec(op timing.Op) {
	if d := p.sys.prof.Cost(p.rng, op); d > 0 {
		p.sp.Advance(d)
	}
}

// insertHandle installs obj in the handle table, caching its
// boundary-crossing bit for the per-op fast path (crossHandle).
func (p *Proc) insertHandle(obj kobj.Object) kobj.Handle {
	h := p.handles.Insert(obj)
	p.hcross = append(p.hcross, p.sys.crossingFor(p.dom, obj))
	return h
}

// crossHandle charges a crossing penalty if the object behind h lives in
// another domain (cached bit; see insertHandle). h must have resolved.
func (p *Proc) crossHandle(h kobj.Handle) {
	if p.hcross[int(h)/4-1] {
		if d := p.sys.prof.Cross(p.rng); d > 0 {
			p.sp.Advance(d)
		}
	}
}

// crossFd charges a crossing penalty if the file behind fd lives in
// another domain (cached bit; see OpenFile). fd must have resolved.
func (p *Proc) crossFd(fd int) {
	if p.fdcross[fd-3] {
		if d := p.sys.prof.Cross(p.rng); d > 0 {
			p.sp.Advance(d)
		}
	}
}

// park blocks the process until woken, tracking the blocked interval for
// the wake-path hazard model. It returns the wake value. If the process
// is crashed while parked (sim fault plane), the deferred unwind hook
// removes it from whatever wait queue it sits in before the panic
// propagates, so no ghost waiter survives the crash.
func (p *Proc) park() int {
	p.blocked = true
	p.blockStart = p.Now()
	defer p.parkUnwind()
	v := p.sp.Park()
	p.blocked = false
	return v
}

// parkUnwind runs as park's deferred epilogue. On a normal return it
// just drops the wait context. On a panic (coroutine cancellation from
// an injected crash, or machine teardown) it first dequeues the process
// from its wait queue, then re-panics so the unwind continues.
func (p *Proc) parkUnwind() {
	if r := recover(); r != nil {
		p.cancelWait()
		p.blocked = false
		p.sigWaiting = -1
		panic(r)
	}
	p.waitObj = nil
	p.waitIn, p.waitFile = nil, nil
	p.waitRv = nil
}

// cancelWait removes the process from the wait queue recorded in its
// wait context, if any. Used by the crash unwind and by the watchdog's
// forced timeout; both run outside the process body.
func (p *Proc) cancelWait() {
	if p.waitObj != nil {
		p.waitObj.CancelWait(p)
		p.waitObj = nil
	}
	if p.waitIn != nil {
		p.waitIn.CancelFlock(p.waitFile)
		p.waitIn, p.waitFile = nil, nil
	}
	if rv := p.waitRv; rv != nil {
		if rv.waiting == p {
			rv.waiting = nil
		}
		p.waitRv = nil
	}
}

// blockedFor reports how long the process has been blocked (0 if it is
// not).
func (p *Proc) blockedFor() sim.Duration {
	if !p.blocked {
		return 0
	}
	return p.sys.k.Now().Sub(p.blockStart)
}

// object resolves a handle to a kernel object of the wanted type.
func (p *Proc) object(h kobj.Handle, typ kobj.Type) (kobj.Object, error) {
	obj, ok := p.handles.Get(h)
	if !ok {
		return nil, ErrBadHandle
	}
	if obj.Type() != typ {
		return nil, fmt.Errorf("%w: have %v, want %v", ErrWrongType, obj.Type(), typ)
	}
	return obj, nil
}

// CloseHandle releases a handle table entry.
func (p *Proc) CloseHandle(h kobj.Handle) error {
	p.exec(timing.OpClose)
	if !p.handles.Close(h) {
		return ErrBadHandle
	}
	return nil
}

// WaitForSingleObject waits until the object behind h is signalled (or
// acquirable), or until timeout elapses (Infinite = wait forever). This is
// the measurement primitive of every Windows-side covert channel: the Spy
// times how long this call blocks.
func (p *Proc) WaitForSingleObject(h kobj.Handle, timeout sim.Duration) (int, error) {
	obj, ok := p.handles.Get(h)
	if !ok {
		return 0, ErrBadHandle
	}
	switch obj.Type() {
	case kobj.TypeSemaphore:
		p.exec(timing.OpSemP)
	case kobj.TypeMutex:
		p.exec(timing.OpMutexAcquire)
	case kobj.TypeFile:
		p.exec(timing.OpLock)
	default:
		p.exec(timing.OpWaitRegister)
	}
	p.crossHandle(h)
	if obj.TryWait(p) {
		return WaitObject0, nil
	}
	if timeout == 0 {
		return WaitTimeout, nil
	}
	obj.Enqueue(p)
	p.waitObj = obj
	if timeout > 0 {
		p.sys.k.After(timeout, func() {
			if p.blocked && obj.CancelWait(p) {
				p.sp.Wake(0, WaitTimeout)
			}
		})
	}
	v := p.park()
	if v == WaitTimeout && timeout < 0 {
		// An unbounded wait can only time out via a watchdog rescue
		// (TimeoutBlocked); surface it as an error, not a wait result.
		return 0, ErrTimedOut
	}
	return v, nil
}
