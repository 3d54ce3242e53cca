package osmodel

import (
	"mes/internal/kobj"
	"mes/internal/sim"
	"mes/internal/timing"
)

// Windows-personality syscalls: kernel objects resolved through per-domain
// namespaces and per-process handle tables (paper §IV.B.1, Fig. 4).

// createIn resolves the open-existing half of every Create* syscall: it
// returns the existing object (or ErrNameConflict on a cross-type
// collision), with ok reporting whether the caller must build and register
// a fresh object instead. Creates that do register a fresh object reuse a
// retired structure via Namespace.TakeRetired where possible, so trials on
// a pooled machine allocate no kernel objects.
func createIn(ns *kobj.Namespace, name string, typ kobj.Type) (existing kobj.Object, ok bool, err error) {
	obj, found := ns.Get(name)
	if !found {
		return nil, false, nil
	}
	if obj.Type() != typ {
		return nil, true, kobj.ErrNameConflict
	}
	return obj, true, nil
}

// CreateEvent creates (or opens, if it exists) a named event.
func (p *Proc) CreateEvent(name string, mode kobj.ResetMode, signalled bool) (kobj.Handle, error) {
	p.exec(timing.OpCreate)
	ns := p.sys.objectNamespace(p.dom, false)
	obj, existed, err := createIn(ns, name, kobj.TypeEvent)
	if err != nil {
		return kobj.InvalidHandle, err
	}
	if !existed {
		if r, ok := ns.TakeRetired(kobj.TypeEvent); ok {
			e := r.(*kobj.Event)
			e.Reinit(name, mode, signalled)
			obj = e
		} else {
			obj = kobj.NewEvent(name, mode, signalled)
		}
		ns.Insert(obj)
		p.sys.registerObject(obj, ns, p.dom)
	}
	return p.insertHandle(obj), nil
}

// OpenEvent opens an existing named event. In a VM guest the lookup is
// session-local: events created in another VM are invisible (Table VI's
// negative result).
func (p *Proc) OpenEvent(name string) (kobj.Handle, error) {
	p.exec(timing.OpOpen)
	obj, err := p.sys.objectNamespace(p.dom, false).Open(name, kobj.TypeEvent)
	if err != nil {
		return kobj.InvalidHandle, err
	}
	return p.insertHandle(obj), nil
}

// SetEvent signals the event; released waiters are scheduled with wake
// delivery (and crossing) delays.
func (p *Proc) SetEvent(h kobj.Handle) error {
	obj, err := p.object(h, kobj.TypeEvent)
	if err != nil {
		return err
	}
	p.exec(timing.OpSet)
	p.crossHandle(h)
	p.sys.k.Record(p.sp, sim.SiteSetEvent, obj.Name(), 0, 0)
	p.sys.wake(p, obj.(*kobj.Event).Set(), WaitObject0)
	return nil
}

// ResetEvent clears the event signal.
func (p *Proc) ResetEvent(h kobj.Handle) error {
	obj, err := p.object(h, kobj.TypeEvent)
	if err != nil {
		return err
	}
	p.exec(timing.OpReset)
	p.crossHandle(h)
	obj.(*kobj.Event).Reset()
	return nil
}

// PulseEvent releases current waiters without latching the signal.
func (p *Proc) PulseEvent(h kobj.Handle) error {
	obj, err := p.object(h, kobj.TypeEvent)
	if err != nil {
		return err
	}
	p.exec(timing.OpSet)
	p.crossHandle(h)
	p.sys.wake(p, obj.(*kobj.Event).Pulse(), WaitObject0)
	return nil
}

// CreateMutex creates (or opens) a named mutex.
func (p *Proc) CreateMutex(name string, initialOwner bool) (kobj.Handle, error) {
	p.exec(timing.OpCreate)
	ns := p.sys.objectNamespace(p.dom, false)
	var owner kobj.Waiter
	if initialOwner {
		owner = p
	}
	obj, existed, err := createIn(ns, name, kobj.TypeMutex)
	if err != nil {
		return kobj.InvalidHandle, err
	}
	if !existed {
		if r, ok := ns.TakeRetired(kobj.TypeMutex); ok {
			m := r.(*kobj.Mutex)
			m.Reinit(name, owner)
			obj = m
		} else {
			obj = kobj.NewMutex(name, owner)
		}
		ns.Insert(obj)
		p.sys.registerObject(obj, ns, p.dom)
	}
	return p.insertHandle(obj), nil
}

// OpenMutex opens an existing named mutex (session-local in VMs).
func (p *Proc) OpenMutex(name string) (kobj.Handle, error) {
	p.exec(timing.OpOpen)
	obj, err := p.sys.objectNamespace(p.dom, false).Open(name, kobj.TypeMutex)
	if err != nil {
		return kobj.InvalidHandle, err
	}
	return p.insertHandle(obj), nil
}

// ReleaseMutex releases one level of ownership.
func (p *Proc) ReleaseMutex(h kobj.Handle) error {
	obj, err := p.object(h, kobj.TypeMutex)
	if err != nil {
		return err
	}
	p.exec(timing.OpMutexRelease)
	p.crossHandle(h)
	woken, err := obj.(*kobj.Mutex).Release(p)
	if err != nil {
		return err
	}
	p.sys.wake(p, woken, WaitObject0)
	return nil
}

// CreateSemaphore creates (or opens) a named semaphore.
func (p *Proc) CreateSemaphore(name string, initial, max int) (kobj.Handle, error) {
	p.exec(timing.OpCreate)
	ns := p.sys.objectNamespace(p.dom, false)
	obj, existed, err := createIn(ns, name, kobj.TypeSemaphore)
	if err != nil {
		return kobj.InvalidHandle, err
	}
	if !existed {
		if r, ok := ns.TakeRetired(kobj.TypeSemaphore); ok {
			sem := r.(*kobj.Semaphore)
			sem.Reinit(name, initial, max)
			obj = sem
		} else {
			obj = kobj.NewSemaphore(name, initial, max)
		}
		ns.Insert(obj)
		p.sys.registerObject(obj, ns, p.dom)
	}
	return p.insertHandle(obj), nil
}

// OpenSemaphore opens an existing named semaphore (session-local in VMs).
func (p *Proc) OpenSemaphore(name string) (kobj.Handle, error) {
	p.exec(timing.OpOpen)
	obj, err := p.sys.objectNamespace(p.dom, false).Open(name, kobj.TypeSemaphore)
	if err != nil {
		return kobj.InvalidHandle, err
	}
	return p.insertHandle(obj), nil
}

// ReleaseSemaphore performs V(n).
func (p *Proc) ReleaseSemaphore(h kobj.Handle, n int) error {
	obj, err := p.object(h, kobj.TypeSemaphore)
	if err != nil {
		return err
	}
	p.exec(timing.OpSemV)
	p.crossHandle(h)
	woken, err := obj.(*kobj.Semaphore).Release(n)
	if err != nil {
		return err
	}
	p.sys.wake(p, woken, WaitObject0)
	return nil
}

// CreateWaitableTimer creates (or opens) a named waitable timer.
func (p *Proc) CreateWaitableTimer(name string, mode kobj.ResetMode) (kobj.Handle, error) {
	p.exec(timing.OpCreate)
	ns := p.sys.objectNamespace(p.dom, false)
	obj, existed, err := createIn(ns, name, kobj.TypeTimer)
	if err != nil {
		return kobj.InvalidHandle, err
	}
	if !existed {
		if r, ok := ns.TakeRetired(kobj.TypeTimer); ok {
			t := r.(*kobj.Timer)
			t.Reinit(name, mode)
			obj = t
		} else {
			obj = kobj.NewTimer(name, mode)
		}
		ns.Insert(obj)
		p.sys.registerObject(obj, ns, p.dom)
	}
	return p.insertHandle(obj), nil
}

// OpenWaitableTimer opens an existing named timer (session-local in VMs).
func (p *Proc) OpenWaitableTimer(name string) (kobj.Handle, error) {
	p.exec(timing.OpOpen)
	obj, err := p.sys.objectNamespace(p.dom, false).Open(name, kobj.TypeTimer)
	if err != nil {
		return kobj.InvalidHandle, err
	}
	return p.insertHandle(obj), nil
}

// SetWaitableTimer programs the timer to signal after due. Reprogramming
// cancels the previous due time.
func (p *Proc) SetWaitableTimer(h kobj.Handle, due sim.Duration) error {
	obj, err := p.object(h, kobj.TypeTimer)
	if err != nil {
		return err
	}
	p.exec(timing.OpTimerSet)
	p.crossHandle(h)
	t := obj.(*kobj.Timer)
	gen := t.Arm()
	if due < 0 {
		due = 0
	}
	setter := p
	p.sys.k.After(due, func() {
		p.sys.wake(setter, t.Fire(gen), WaitObject0)
	})
	return nil
}

// CancelWaitableTimer invalidates the outstanding programming.
func (p *Proc) CancelWaitableTimer(h kobj.Handle) error {
	obj, err := p.object(h, kobj.TypeTimer)
	if err != nil {
		return err
	}
	p.exec(timing.OpTimerSet)
	p.crossHandle(h)
	obj.(*kobj.Timer).Cancel()
	return nil
}

// CreateLockableFile creates (or opens) a named file object backed by a
// host path — the FileLockEX channel's resource. File-backed objects are
// the only kind that resolve across VM boundaries on Hyper-V.
func (p *Proc) CreateLockableFile(name, path string, readOnly bool) (kobj.Handle, error) {
	p.exec(timing.OpCreate)
	ns := p.sys.objectNamespace(p.dom, true)
	obj, existed, err := createIn(ns, name, kobj.TypeFile)
	if err != nil {
		return kobj.InvalidHandle, err
	}
	if !existed {
		if r, ok := ns.TakeRetired(kobj.TypeFile); ok {
			fo := r.(*kobj.FileObject)
			fo.Reinit(name, path, readOnly)
			obj = fo
		} else {
			obj = kobj.NewFileObject(name, path, readOnly)
		}
		ns.Insert(obj)
		p.sys.registerObject(obj, ns, p.dom)
	}
	return p.insertHandle(obj), nil
}

// OpenLockableFile opens an existing named file object.
func (p *Proc) OpenLockableFile(name string) (kobj.Handle, error) {
	p.exec(timing.OpOpen)
	obj, err := p.sys.objectNamespace(p.dom, true).Open(name, kobj.TypeFile)
	if err != nil {
		return kobj.InvalidHandle, err
	}
	return p.insertHandle(obj), nil
}

// LockFileEx acquires a whole-file lock through h, blocking unless
// nonblocking is set (in which case kobj-compatible failure returns
// vfs-style ErrWouldBlock via the boolean).
func (p *Proc) LockFileEx(h kobj.Handle, exclusive, nonblocking bool) (bool, error) {
	obj, err := p.object(h, kobj.TypeFile)
	if err != nil {
		return false, err
	}
	p.exec(timing.OpLock)
	p.crossHandle(h)
	fo := obj.(*kobj.FileObject)
	if fo.TryLock(p, exclusive) {
		return true, nil
	}
	if nonblocking {
		return false, nil
	}
	fo.EnqueueLock(p, exclusive)
	p.waitObj = fo
	if p.park() == WaitTimeout {
		return false, ErrTimedOut // watchdog rescue: the holder is gone
	}
	return true, nil
}

// UnlockFileEx releases p's lock on the file object.
func (p *Proc) UnlockFileEx(h kobj.Handle) error {
	obj, err := p.object(h, kobj.TypeFile)
	if err != nil {
		return err
	}
	p.exec(timing.OpUnlock)
	p.crossHandle(h)
	p.sys.wake(p, obj.(*kobj.FileObject).Unlock(p), WaitObject0)
	return nil
}
