// Package kobj models Windows kernel objects: Event, Mutex, Semaphore,
// WaitableTimer and lockable file objects, together with named-object
// namespaces and per-process handle tables (paper Fig. 4). The package is a
// set of pure state machines — it knows nothing about time or scheduling.
// Blocking is delegated to the caller: operations that would wake threads
// return the ordered list of waiters to be resumed, and the OS model layer
// (internal/osmodel) parks and wakes simulated processes accordingly. This
// separation keeps the object semantics unit- and property-testable in
// isolation.
package kobj

import (
	"errors"
	"fmt"
)

// Waiter is an opaque reference to a blocked thread, supplied by the OS
// layer. kobj only queues and returns these references.
type Waiter interface {
	WaiterName() string
}

// Type identifies the kernel object class.
type Type int

// Kernel object classes used by the MES-Attacks.
const (
	TypeEvent Type = iota
	TypeMutex
	TypeSemaphore
	TypeTimer
	TypeFile
	TypeFutex
	TypeCond
)

func (t Type) String() string {
	//mes:mechtable Type
	switch t {
	case TypeEvent:
		return "Event"
	case TypeMutex:
		return "Mutex"
	case TypeSemaphore:
		return "Semaphore"
	case TypeTimer:
		return "WaitableTimer"
	case TypeFile:
		return "File"
	case TypeFutex:
		return "Futex"
	case TypeCond:
		return "Cond"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Object is the common surface of all kernel objects. TryWait and Enqueue
// implement the two halves of WaitForSingleObject: a non-blocking
// acquisition attempt, and registration as a blocked waiter when the
// attempt fails.
type Object interface {
	Name() string
	Type() Type
	// TryWait attempts to satisfy a wait for w without blocking and reports
	// whether the object was acquired (and its state consumed, for
	// auto-reset semantics).
	TryWait(w Waiter) bool
	// Enqueue registers w at the tail of the object's wait queue.
	Enqueue(w Waiter)
	// CancelWait removes w from the wait queue (wait timeout/abandon),
	// reporting whether w was queued.
	CancelWait(w Waiter) bool
	// WaiterCount reports how many threads are blocked on the object.
	WaiterCount() int
}

// Errors returned by object operations.
var (
	ErrNotOwner     = errors.New("kobj: calling thread does not own the mutex")
	ErrSemOverflow  = errors.New("kobj: semaphore release would exceed maximum")
	ErrBadRelease   = errors.New("kobj: release count must be positive")
	ErrNameConflict = errors.New("kobj: name already in use by a different object type")
	ErrNotFound     = errors.New("kobj: no object with that name")
)

// waitQueue is a FIFO of blocked waiters with stable ordering. The paper's
// channels require fair (queue-order) competition (§V.B); unfair variants
// are modeled at the flock layer where the paper discusses them.
type waitQueue struct {
	items []Waiter
	// wake is the reusable result buffer for operations that release
	// waiters; per-bit single-waiter handoffs then never allocate. The
	// returned slice is valid only until the queue's next wake-returning
	// operation — the OS layer consumes it immediately.
	wake []Waiter
	// itemsBuf/wakeBuf seed the two slices above, so the covert channels'
	// one-waiter-deep queues never heap-allocate even on a freshly created
	// object (one kernel object is created per transmission; with pooled
	// machines these were the last per-trial queue allocations). Deeper
	// queues spill to the heap via append as usual.
	itemsBuf [2]Waiter
	wakeBuf  [2]Waiter
}

// wakeOne returns a single-element waiter list backed by the reusable
// buffer.
//
//mes:allocfree
func (q *waitQueue) wakeOne(w Waiter) []Waiter {
	if q.wake == nil {
		q.wake = q.wakeBuf[:0]
	}
	q.wake = append(q.wake[:0], w)
	return q.wake
}

// wakeN pops up to n waiters into the reusable buffer, preserving FIFO
// order.
//
//mes:allocfree
func (q *waitQueue) wakeN(n int) []Waiter {
	if q.wake == nil {
		q.wake = q.wakeBuf[:0]
	}
	q.wake = q.wake[:0]
	for i := 0; i < n; i++ {
		q.wake = append(q.wake, q.pop())
	}
	return q.wake
}

func (q *waitQueue) len() int { return len(q.items) }

// reset empties the queue in place, retaining both buffers' capacity, as
// part of returning an object to its freshly constructed state (Reinit).
func (q *waitQueue) reset() {
	for i := range q.items {
		q.items[i] = nil
	}
	q.items = q.items[:0]
}

func (q *waitQueue) push(w Waiter) {
	if q.items == nil {
		q.items = q.itemsBuf[:0]
	}
	q.items = append(q.items, w)
}

func (q *waitQueue) pop() Waiter {
	if len(q.items) == 0 {
		return nil
	}
	w := q.items[0]
	copy(q.items, q.items[1:])
	q.items[len(q.items)-1] = nil
	q.items = q.items[:len(q.items)-1]
	return w
}

func (q *waitQueue) remove(w Waiter) bool {
	for i, x := range q.items {
		if x == w {
			copy(q.items[i:], q.items[i+1:])
			q.items[len(q.items)-1] = nil
			q.items = q.items[:len(q.items)-1]
			return true
		}
	}
	return false
}

func (q *waitQueue) drain() []Waiter {
	if q.wake == nil {
		q.wake = q.wakeBuf[:0]
	}
	out := append(q.wake[:0], q.items...)
	for i := range q.items {
		q.items[i] = nil
	}
	q.items = q.items[:0]
	q.wake = out
	return out
}
