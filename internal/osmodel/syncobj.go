package osmodel

import (
	"mes/internal/kobj"
	"mes/internal/sim"
	"mes/internal/timing"
)

// Extension synchronization primitives beyond the paper's six mechanisms:
// futexes and process-shared condition variables. Both are Linux-native
// (futex(2) and futex-backed pthread_cond), but like every kobj object
// they resolve through the domain's object namespace — the namespace key
// stands in for the shared-memory mapping the real attack negotiates.

// CreateFutex creates (or opens, if it exists) a named futex word.
func (p *Proc) CreateFutex(name string) (kobj.Handle, error) {
	p.exec(timing.OpCreate)
	ns := p.sys.objectNamespace(p.dom, false)
	obj, existed, err := createIn(ns, name, kobj.TypeFutex)
	if err != nil {
		return kobj.InvalidHandle, err
	}
	if !existed {
		if r, ok := ns.TakeRetired(kobj.TypeFutex); ok {
			f := r.(*kobj.Futex)
			f.Reinit(name)
			obj = f
		} else {
			obj = kobj.NewFutex(name)
		}
		ns.Insert(obj)
		p.sys.registerObject(obj, ns, p.dom)
	}
	return p.insertHandle(obj), nil
}

// OpenFutex opens an existing named futex (session-local in VMs: futex
// words live in memory the guests do not share).
func (p *Proc) OpenFutex(name string) (kobj.Handle, error) {
	p.exec(timing.OpOpen)
	obj, err := p.sys.objectNamespace(p.dom, false).Open(name, kobj.TypeFutex)
	if err != nil {
		return kobj.InvalidHandle, err
	}
	return p.insertHandle(obj), nil
}

// futexRewoken is the wake result delivered by a raw FutexWake, as
// opposed to WaitObject0 from an Unlock handoff: the rewoken waiter does
// not own the word and must re-contend.
const futexRewoken = 1

// FutexLock acquires the futex in its lock form (word 0→1), blocking in
// FUTEX_WAIT while it is held. This is the measurement primitive of the
// futex contention channel: the Spy times how long the acquire blocks.
// An Unlock hands the word to the head waiter directly (fair FIFO); a
// raw FutexWake merely rouses waiters, who re-run the acquire and queue
// again behind anyone already waiting — exactly futex(2)'s contract.
func (p *Proc) FutexLock(h kobj.Handle) error {
	obj, err := p.object(h, kobj.TypeFutex)
	if err != nil {
		return err
	}
	p.exec(timing.OpFutexWait)
	p.crossHandle(h)
	p.sys.k.Record(p.sp, sim.SiteFutexEX, obj.Name(), 0, 0)
	for {
		if obj.TryWait(p) {
			return nil
		}
		obj.Enqueue(p)
		p.waitObj = obj
		switch p.park() {
		case WaitObject0:
			return nil // the releasing side handed the word off directly
		case WaitTimeout:
			return ErrTimedOut // watchdog rescue: the handoff is not coming
		}
		// Raw FUTEX_WAKE: the word was not transferred — contend again.
	}
}

// FutexUnlock releases the lock, handing the word to the head waiter
// (fair FIFO order) if one is queued.
func (p *Proc) FutexUnlock(h kobj.Handle) error {
	obj, err := p.object(h, kobj.TypeFutex)
	if err != nil {
		return err
	}
	p.exec(timing.OpFutexWake)
	p.crossHandle(h)
	p.sys.k.Record(p.sp, sim.SiteFutexUN, obj.Name(), 0, 0)
	p.sys.wake(p, obj.(*kobj.Futex).Unlock(), WaitObject0)
	return nil
}

// FutexWake performs a raw FUTEX_WAKE of up to n waiters without
// releasing the word. The woken waiters do not acquire anything — their
// FutexLock re-contends (and re-queues) when they resume.
func (p *Proc) FutexWake(h kobj.Handle, n int) error {
	obj, err := p.object(h, kobj.TypeFutex)
	if err != nil {
		return err
	}
	p.exec(timing.OpFutexWake)
	p.crossHandle(h)
	p.sys.k.Record(p.sp, sim.SiteFutexWake, obj.Name(), 0, 0)
	p.sys.wake(p, obj.(*kobj.Futex).Wake(n), futexRewoken)
	return nil
}

// CreateCond creates (or opens) a named process-shared condition
// variable.
func (p *Proc) CreateCond(name string) (kobj.Handle, error) {
	p.exec(timing.OpCreate)
	ns := p.sys.objectNamespace(p.dom, false)
	obj, existed, err := createIn(ns, name, kobj.TypeCond)
	if err != nil {
		return kobj.InvalidHandle, err
	}
	if !existed {
		if r, ok := ns.TakeRetired(kobj.TypeCond); ok {
			c := r.(*kobj.Cond)
			c.Reinit(name)
			obj = c
		} else {
			obj = kobj.NewCond(name)
		}
		ns.Insert(obj)
		p.sys.registerObject(obj, ns, p.dom)
	}
	return p.insertHandle(obj), nil
}

// OpenCond opens an existing named condition variable (session-local in
// VMs).
func (p *Proc) OpenCond(name string) (kobj.Handle, error) {
	p.exec(timing.OpOpen)
	obj, err := p.sys.objectNamespace(p.dom, false).Open(name, kobj.TypeCond)
	if err != nil {
		return kobj.InvalidHandle, err
	}
	return p.insertHandle(obj), nil
}

// CondWait blocks until the condition variable is signalled. There is no
// fast path — condvars are stateless, so the caller always parks; a
// signal sent while nobody waits is lost. The Spy of the condvar
// cooperation channel times this call.
func (p *Proc) CondWait(h kobj.Handle) error {
	obj, err := p.object(h, kobj.TypeCond)
	if err != nil {
		return err
	}
	p.exec(timing.OpCondWait)
	p.crossHandle(h)
	obj.Enqueue(p)
	p.waitObj = obj
	if p.park() == WaitTimeout {
		return ErrTimedOut // watchdog rescue: the signal was lost
	}
	return nil
}

// CondSignal wakes the head waiter, if any (pthread_cond_signal).
func (p *Proc) CondSignal(h kobj.Handle) error {
	obj, err := p.object(h, kobj.TypeCond)
	if err != nil {
		return err
	}
	p.exec(timing.OpCondSignal)
	p.crossHandle(h)
	p.sys.k.Record(p.sp, sim.SiteCondSignal, obj.Name(), 0, 0)
	p.sys.wake(p, obj.(*kobj.Cond).Signal(), WaitObject0)
	return nil
}

// CondBroadcast wakes every queued waiter (pthread_cond_broadcast). It
// traces as "condsignal" so a pair that broadcasts instead of signalling
// folds into the same detector resource group.
func (p *Proc) CondBroadcast(h kobj.Handle) error {
	obj, err := p.object(h, kobj.TypeCond)
	if err != nil {
		return err
	}
	p.exec(timing.OpCondSignal)
	p.crossHandle(h)
	p.sys.k.Record(p.sp, sim.SiteCondSignal, obj.Name(), 0, 0)
	p.sys.wake(p, obj.(*kobj.Cond).Broadcast(), WaitObject0)
	return nil
}
