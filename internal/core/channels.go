package core

import (
	"errors"
	"fmt"

	"mes/internal/kobj"
	"mes/internal/osmodel"
	"mes/internal/sim"
	"mes/internal/timing"
	"mes/internal/vfs"
)

// sender is the Trojan half of a channel: it transmits one symbol per call
// by shaping the time at which the Spy leaves its constraint state.
type sender interface {
	setup(p *osmodel.Proc) error
	send(p *osmodel.Proc, sym int) error
}

// receiver is the Spy half: it performs one constraint-state round trip
// and reports how long release took.
type receiver interface {
	setup(p *osmodel.Proc) error
	measure(p *osmodel.Proc) (sim.Duration, error)
}

// openRetry retries an open until the peer has created the object. A bound
// failure means the object is unreachable from this domain (cross-VM
// isolation) rather than merely not created yet.
const (
	openRetries  = 50
	openRetryGap = 20 * sim.Microsecond
)

func retryOpen[T any](p *osmodel.Proc, open func() (T, error)) (T, error) {
	var zero T
	var lastErr error
	for i := 0; i < openRetries; i++ {
		v, err := open()
		if err == nil {
			return v, nil
		}
		lastErr = err
		p.Sleep(openRetryGap)
	}
	return zero, fmt.Errorf("core: object never became reachable: %w", lastErr)
}

// waitSyms converts a symbol to the Trojan's wait before signalling:
// tw0 + sym·ti (paper §VI; binary symbols degenerate to tw0 / tw0+ti).
func (p Params) waitFor(sym int) sim.Duration {
	return p.TW0 + sim.Duration(sym)*p.TI
}

// judgeSymbol charges the per-symbol decision work: one branch for binary,
// plus one comparison per extra level for M-ary coding. This is §VI's
// observation that "the number of judgement cases increases" with symbol
// width, which is why 3-bit coding gains nothing over 2-bit.
func judgeSymbol(p *osmodel.Proc, par Params) {
	p.Judge()
	for i := 2; i < par.M(); i++ {
		p.Judge()
	}
}

// --- Event (cooperation, Protocol 2) ---

type eventSender struct {
	name string
	par  Params
	h    kobj.Handle
}

func (s *eventSender) setup(p *osmodel.Proc) error {
	h, err := retryOpen(p, func() (kobj.Handle, error) { return p.OpenEvent(s.name) })
	if err != nil {
		return err
	}
	s.h = h
	return nil
}

func (s *eventSender) send(p *osmodel.Proc, sym int) error {
	judgeSymbol(p, s.par)
	p.Sleep(s.par.waitFor(sym))
	return p.SetEvent(s.h)
}

type eventReceiver struct {
	name string
	h    kobj.Handle
}

func (r *eventReceiver) setup(p *osmodel.Proc) error {
	h, err := p.CreateEvent(r.name, kobj.AutoReset, false)
	if err != nil {
		return err
	}
	r.h = h
	return nil
}

func (r *eventReceiver) measure(p *osmodel.Proc) (sim.Duration, error) {
	start := p.Timestamp()
	res, err := p.WaitForSingleObject(r.h, osmodel.Infinite)
	if err != nil {
		return 0, err
	}
	if res != osmodel.WaitObject0 {
		return 0, fmt.Errorf("core: event wait returned %d", res)
	}
	return p.Timestamp().Sub(start), nil
}

// --- WaitableTimer (cooperation) ---

type timerSender struct {
	name string
	par  Params
	h    kobj.Handle
}

func (s *timerSender) setup(p *osmodel.Proc) error {
	h, err := retryOpen(p, func() (kobj.Handle, error) { return p.OpenWaitableTimer(s.name) })
	if err != nil {
		return err
	}
	s.h = h
	return nil
}

func (s *timerSender) send(p *osmodel.Proc, sym int) error {
	judgeSymbol(p, s.par)
	due := s.par.waitFor(sym)
	if err := p.SetWaitableTimer(s.h, due); err != nil {
		return err
	}
	// Pace past the due time before the next (cancelling) re-arm; the
	// platform sleep overshoot guarantees the margin.
	p.Sleep(due)
	return nil
}

type timerReceiver struct {
	name string
	h    kobj.Handle
}

func (r *timerReceiver) setup(p *osmodel.Proc) error {
	h, err := p.CreateWaitableTimer(r.name, kobj.AutoReset)
	if err != nil {
		return err
	}
	r.h = h
	return nil
}

func (r *timerReceiver) measure(p *osmodel.Proc) (sim.Duration, error) {
	start := p.Timestamp()
	res, err := p.WaitForSingleObject(r.h, osmodel.Infinite)
	if err != nil {
		return 0, err
	}
	if res != osmodel.WaitObject0 {
		return 0, fmt.Errorf("core: timer wait returned %d", res)
	}
	return p.Timestamp().Sub(start), nil
}

// --- Mutex (contention) ---

type mutexSender struct {
	name string
	par  Params
	h    kobj.Handle
}

func (s *mutexSender) setup(p *osmodel.Proc) error {
	h, err := retryOpen(p, func() (kobj.Handle, error) { return p.OpenMutex(s.name) })
	if err != nil {
		return err
	}
	s.h = h
	return nil
}

func (s *mutexSender) send(p *osmodel.Proc, sym int) error {
	p.Judge()
	if sym == 0 {
		p.Sleep(s.par.TT0)
		return nil
	}
	if _, err := p.WaitForSingleObject(s.h, osmodel.Infinite); err != nil {
		return err
	}
	p.Sleep(s.par.TT1)
	return p.ReleaseMutex(s.h)
}

type mutexReceiver struct {
	name string
	h    kobj.Handle
}

func (r *mutexReceiver) setup(p *osmodel.Proc) error {
	h, err := p.CreateMutex(r.name, false)
	if err != nil {
		return err
	}
	r.h = h
	return nil
}

func (r *mutexReceiver) measure(p *osmodel.Proc) (sim.Duration, error) {
	start := p.Timestamp()
	if _, err := p.WaitForSingleObject(r.h, osmodel.Infinite); err != nil {
		return 0, err
	}
	if err := p.ReleaseMutex(r.h); err != nil {
		return 0, err
	}
	return p.Timestamp().Sub(start), nil
}

// --- Semaphore (contention, binary-semaphore mutual-exclusion form) ---
//
// The paper's performance channel uses the Semaphore's mutual-exclusion
// function (§IV.E rules out the produce-before-consume form: pre-filled
// resources satisfy every P instantly and "the spy receives no 0"). Each
// bit costs the 6-instruction P-P-S-sleep-V-V budget, which is why its TR
// trails the 3-instruction lock channels (§V.C.1).

type semSender struct {
	name string
	par  Params
	h    kobj.Handle
}

func (s *semSender) setup(p *osmodel.Proc) error {
	h, err := retryOpen(p, func() (kobj.Handle, error) { return p.OpenSemaphore(s.name) })
	if err != nil {
		return err
	}
	s.h = h
	return nil
}

func (s *semSender) send(p *osmodel.Proc, sym int) error {
	p.Judge()
	if sym == 0 {
		p.Sleep(s.par.TT0)
		return nil
	}
	if _, err := p.WaitForSingleObject(s.h, osmodel.Infinite); err != nil { // P
		return err
	}
	p.ChargeOp(timing.OpSemP) // second P of the 6-op lock emulation
	p.Sleep(s.par.TT1)
	p.ChargeOp(timing.OpSemV)         // first V
	return p.ReleaseSemaphore(s.h, 1) // second V
}

type semReceiver struct {
	name string
	h    kobj.Handle
}

func (r *semReceiver) setup(p *osmodel.Proc) error {
	h, err := p.CreateSemaphore(r.name, 1, 1)
	if err != nil {
		return err
	}
	r.h = h
	return nil
}

func (r *semReceiver) measure(p *osmodel.Proc) (sim.Duration, error) {
	start := p.Timestamp()
	if _, err := p.WaitForSingleObject(r.h, osmodel.Infinite); err != nil { // P
		return 0, err
	}
	if err := p.ReleaseSemaphore(r.h, 1); err != nil { // V
		return 0, err
	}
	return p.Timestamp().Sub(start), nil
}

// --- FileLockEX (contention, Windows file object) ---

type fileLockSender struct {
	name string
	path string
	par  Params
	h    kobj.Handle
}

func (s *fileLockSender) setup(p *osmodel.Proc) error {
	h, err := retryOpen(p, func() (kobj.Handle, error) { return p.OpenLockableFile(s.name) })
	if err != nil {
		return err
	}
	s.h = h
	return nil
}

func (s *fileLockSender) send(p *osmodel.Proc, sym int) error {
	p.Judge()
	if sym == 0 {
		p.Sleep(s.par.TT0)
		return nil
	}
	if _, err := p.LockFileEx(s.h, true, false); err != nil {
		return err
	}
	p.Sleep(s.par.TT1)
	return p.UnlockFileEx(s.h)
}

type fileLockReceiver struct {
	name string
	path string
	h    kobj.Handle
}

func (r *fileLockReceiver) setup(p *osmodel.Proc) error {
	h, err := p.CreateLockableFile(r.name, r.path, true)
	if err != nil {
		return err
	}
	r.h = h
	return nil
}

func (r *fileLockReceiver) measure(p *osmodel.Proc) (sim.Duration, error) {
	start := p.Timestamp()
	if _, err := p.LockFileEx(r.h, true, false); err != nil {
		return 0, err
	}
	if err := p.UnlockFileEx(r.h); err != nil {
		return 0, err
	}
	return p.Timestamp().Sub(start), nil
}

// --- flock (contention, Linux; Protocol 1) ---

type flockSender struct {
	name string
	path string
	par  Params
	fd   int
}

func (s *flockSender) setup(p *osmodel.Proc) error {
	fd, err := retryOpen(p, func() (int, error) { return p.OpenFile(s.path, false) })
	if err != nil {
		return err
	}
	s.fd = fd
	return nil
}

func (s *flockSender) send(p *osmodel.Proc, sym int) error {
	p.Judge()
	if sym == 0 {
		p.Sleep(s.par.TT0)
		return nil
	}
	if err := p.Flock(s.fd, vfs.LockEx, false); err != nil {
		return err
	}
	p.Sleep(s.par.TT1)
	return p.Flock(s.fd, vfs.LockNone, false)
}

type flockReceiver struct {
	name string
	path string
	fd   int
}

func (r *flockReceiver) setup(p *osmodel.Proc) error {
	fd, err := retryOpen(p, func() (int, error) { return p.OpenFile(r.path, false) })
	if err != nil {
		return err
	}
	r.fd = fd
	return nil
}

func (r *flockReceiver) measure(p *osmodel.Proc) (sim.Duration, error) {
	start := p.Timestamp()
	if err := p.Flock(r.fd, vfs.LockEx, false); err != nil {
		return 0, err
	}
	if err := p.Flock(r.fd, vfs.LockNone, false); err != nil {
		return 0, err
	}
	return p.Timestamp().Sub(start), nil
}

// --- Futex (contention, Linux; extension mechanism) ---
//
// The lock form of futex(2): the Trojan holds the word for TT1 on bit 1,
// the Spy times its own acquire+release round trip. Structurally the
// Mutex channel on the Linux personality — the futex word in a shared
// mapping is the pre-negotiated critical resource.

type futexSender struct {
	name string
	par  Params
	h    kobj.Handle
}

func (s *futexSender) setup(p *osmodel.Proc) error {
	h, err := retryOpen(p, func() (kobj.Handle, error) { return p.OpenFutex(s.name) })
	if err != nil {
		return err
	}
	s.h = h
	return nil
}

func (s *futexSender) send(p *osmodel.Proc, sym int) error {
	p.Judge()
	if sym == 0 {
		p.Sleep(s.par.TT0)
		return nil
	}
	if err := p.FutexLock(s.h); err != nil {
		return err
	}
	p.Sleep(s.par.TT1)
	return p.FutexUnlock(s.h)
}

type futexReceiver struct {
	name string
	h    kobj.Handle
}

func (r *futexReceiver) setup(p *osmodel.Proc) error {
	h, err := p.CreateFutex(r.name)
	if err != nil {
		return err
	}
	r.h = h
	return nil
}

func (r *futexReceiver) measure(p *osmodel.Proc) (sim.Duration, error) {
	start := p.Timestamp()
	if err := p.FutexLock(r.h); err != nil {
		return 0, err
	}
	if err := p.FutexUnlock(r.h); err != nil {
		return 0, err
	}
	return p.Timestamp().Sub(start), nil
}

// --- CondVar (cooperation, Linux; extension mechanism) ---
//
// The process-shared pthread condition variable carries Protocol 2
// unchanged: the Spy parks in cond_wait, the Trojan signals after
// tw0 + sym·ti. Because condvars are stateless the Spy must be parked
// before every signal — the tw0 ≥ the Linux sleep floor in the default
// Timeset guarantees the margin.

type condSender struct {
	name string
	par  Params
	h    kobj.Handle
}

func (s *condSender) setup(p *osmodel.Proc) error {
	h, err := retryOpen(p, func() (kobj.Handle, error) { return p.OpenCond(s.name) })
	if err != nil {
		return err
	}
	s.h = h
	return nil
}

func (s *condSender) send(p *osmodel.Proc, sym int) error {
	judgeSymbol(p, s.par)
	p.Sleep(s.par.waitFor(sym))
	return p.CondSignal(s.h)
}

type condReceiver struct {
	name string
	h    kobj.Handle
}

func (r *condReceiver) setup(p *osmodel.Proc) error {
	h, err := p.CreateCond(r.name)
	if err != nil {
		return err
	}
	r.h = h
	return nil
}

func (r *condReceiver) measure(p *osmodel.Proc) (sim.Duration, error) {
	start := p.Timestamp()
	if err := p.CondWait(r.h); err != nil {
		return 0, err
	}
	return p.Timestamp().Sub(start), nil
}

// --- WriteSync (contention, Linux; extension mechanism) ---
//
// The page-cache/fsync channel of Sync+Sync (arXiv:2309.07657) and
// Write+Sync (arXiv:2312.11501). Each side owns a private writable file;
// the shared resource is the filesystem journal: bit 1 = the Trojan
// dirties writeSyncPagesPerBit pages of its own file, and the Spy's
// fsync of its own file must write them all back (ext4 commits the whole
// journal), stretching the measured fsync latency by pages × the
// page-flush cost. Bit 0 = the Trojan sleeps TT0 and the Spy's fsync
// returns at the clean-journal base cost. Neither process ever touches
// the other's file — the contention is entirely inside the kernel.

// writeSyncPagesPerBit is the Trojan's per-bit write burst. With the
// calibrated ~12µs page flush this puts the dirty-fsync level at the
// default Timeset's TT1 (~150µs), well clear of the ~8µs clean level.
const writeSyncPagesPerBit = 12

type writeSyncSender struct {
	name string
	path string
	par  Params
	fd   int
}

func (s *writeSyncSender) setup(p *osmodel.Proc) error {
	if _, err := p.CreateHostFile(s.path, writeSyncPagesPerBit*4096, false, false); err != nil {
		return err
	}
	fd, err := p.OpenFile(s.path, true)
	if err != nil {
		return err
	}
	s.fd = fd
	return nil
}

func (s *writeSyncSender) send(p *osmodel.Proc, sym int) error {
	p.Judge()
	if sym == 0 {
		p.Sleep(s.par.TT0)
		return nil
	}
	return p.WriteFile(s.fd, writeSyncPagesPerBit)
}

type writeSyncReceiver struct {
	name string
	path string
	fd   int
}

func (r *writeSyncReceiver) setup(p *osmodel.Proc) error {
	if _, err := p.CreateHostFile(r.path, 4096, false, false); err != nil {
		return err
	}
	fd, err := p.OpenFile(r.path, true)
	if err != nil {
		return err
	}
	r.fd = fd
	return nil
}

func (r *writeSyncReceiver) measure(p *osmodel.Proc) (sim.Duration, error) {
	start := p.Timestamp()
	if _, err := p.Fsync(r.fd); err != nil {
		return 0, err
	}
	return p.Timestamp().Sub(start), nil
}

// newPair builds the sender/receiver implementations for a mechanism,
// naming their kernel objects and files after name (see link.objectName).
func newPair(m Mechanism, par Params, name string) (sender, receiver, error) {
	switch m {
	case Event:
		return &eventSender{name: name, par: par}, &eventReceiver{name: name}, nil
	case Timer:
		return &timerSender{name: name, par: par}, &timerReceiver{name: name}, nil
	case Mutex:
		return &mutexSender{name: name, par: par}, &mutexReceiver{name: name}, nil
	case Semaphore:
		return &semSender{name: name, par: par}, &semReceiver{name: name}, nil
	case FileLockEX:
		path := "/host/" + name + ".txt"
		return &fileLockSender{name: name, path: path, par: par},
			&fileLockReceiver{name: name, path: path}, nil
	case Flock:
		path := "/share/" + name + ".txt"
		return &flockSender{name: name, path: path, par: par},
			&flockReceiver{name: name, path: path}, nil
	case Futex:
		return &futexSender{name: name, par: par}, &futexReceiver{name: name}, nil
	case CondVar:
		return &condSender{name: name, par: par}, &condReceiver{name: name}, nil
	case WriteSync:
		return &writeSyncSender{name: name, path: "/share/" + name + "_t.dat", par: par},
			&writeSyncReceiver{name: name, path: "/share/" + name + "_s.dat"}, nil
	default:
		return nil, nil, errors.New("core: unknown mechanism")
	}
}

// rebindable lets a session's link retarget its cached
// sender/receiver pair at a new trial's parameters and object name without
// rebuilding the pair. Implementations must leave the structure exactly as
// newPair would have built it; per-run handles and descriptors are
// overwritten by setup anyway. Path-backed pairs only rebuild their path
// strings when the name actually changed, keeping replayed configurations
// allocation-free.
type rebindable interface {
	rebind(par Params, name string)
}

func (s *eventSender) rebind(par Params, name string) { s.name, s.par = name, par }
func (r *eventReceiver) rebind(_ Params, name string) { r.name = name }
func (s *timerSender) rebind(par Params, name string) { s.name, s.par = name, par }
func (r *timerReceiver) rebind(_ Params, name string) { r.name = name }
func (s *mutexSender) rebind(par Params, name string) { s.name, s.par = name, par }
func (r *mutexReceiver) rebind(_ Params, name string) { r.name = name }
func (s *semSender) rebind(par Params, name string)   { s.name, s.par = name, par }
func (r *semReceiver) rebind(_ Params, name string)   { r.name = name }
func (s *futexSender) rebind(par Params, name string) { s.name, s.par = name, par }
func (r *futexReceiver) rebind(_ Params, name string) { r.name = name }
func (s *condSender) rebind(par Params, name string)  { s.name, s.par = name, par }
func (r *condReceiver) rebind(_ Params, name string)  { r.name = name }

func (s *fileLockSender) rebind(par Params, name string) {
	s.par = par
	if s.name != name {
		s.name, s.path = name, "/host/"+name+".txt"
	}
}

func (r *fileLockReceiver) rebind(_ Params, name string) {
	if r.name != name {
		r.name, r.path = name, "/host/"+name+".txt"
	}
}

func (s *flockSender) rebind(par Params, name string) {
	s.par = par
	if s.name != name {
		s.name, s.path = name, "/share/"+name+".txt"
	}
}

func (r *flockReceiver) rebind(_ Params, name string) {
	if r.name != name {
		r.name, r.path = name, "/share/"+name+".txt"
	}
}

func (s *writeSyncSender) rebind(par Params, name string) {
	s.par = par
	if s.name != name {
		s.name, s.path = name, "/share/"+name+"_t.dat"
	}
}

func (r *writeSyncReceiver) rebind(_ Params, name string) {
	if r.name != name {
		r.name, r.path = name, "/share/"+name+"_s.dat"
	}
}
