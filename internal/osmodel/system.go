package osmodel

import (
	"fmt"

	"mes/internal/kobj"
	"mes/internal/sim"
	"mes/internal/timing"
	"mes/internal/vfs"
)

// Config parameterizes a simulated machine.
type Config struct {
	// Profile is the timing personality (see internal/timing). Required.
	Profile timing.Profile
	// Seed drives all stochastic components. Runs with equal seeds replay
	// identically.
	Seed uint64
	// Trace optionally records kernel events.
	Trace *sim.Trace
	// Horizon optionally bounds the simulation (0 = unbounded).
	Horizon sim.Time
	// FaultRate arms the kernel's deterministic fault-injection plane:
	// each scheduling consult point (sleeps and wake deliveries) injects
	// a fault with this probability, drawn from a substream derived from
	// FaultSeed and Seed only. 0 disables injection and is byte-identical
	// to a machine without the plane (see sim/fault.go).
	FaultRate float64
	// FaultSeed decorrelates the fault schedule from the run seed, so a
	// fault sweep can vary the fault pattern while replaying the same
	// protocol randomness (and vice versa).
	FaultSeed uint64
}

// System is one simulated physical machine: a simulation kernel, a host
// object namespace and filesystem, and a set of isolation domains.
type System struct {
	k    *sim.Kernel
	prof timing.Profile
	rng  *sim.RNG

	hostDomain *Domain
	domains    map[string]*Domain
	objHome    map[kobj.Object]*Domain
	inodeHome  map[*vfs.Inode]*Domain

	procs []*Proc
	free  []*Proc // finished procs available for reuse after Reset

	// freeDomains recycles non-host Domain structures (and their private
	// namespaces/filesystems, see Domain.privNS/privFS) across Resets.
	freeDomains []*Domain

	// convBuf is the reusable vfs→kobj waiter conversion buffer (wakeVFS is
	// on the flock channel's per-bit path).
	convBuf []kobj.Waiter

	// Trial watchdog (see ArmWatchdog): watchFn is the reusable
	// self-rescheduling scan closure, watchPeriod its cadence and
	// watchPatience the blocked-interval threshold past which a waiter
	// with no wake in flight is force-timed-out.
	watchFn       func()
	watchPeriod   sim.Duration
	watchPatience sim.Duration
}

// freeDomainCap bounds the recycled-domain free list; trials use at most
// two non-host domains (the two VM guests).
const freeDomainCap = 4

// NewSystem builds a machine with a host domain.
func NewSystem(cfg Config) *System {
	opts := []sim.Option{sim.WithSeed(cfg.Seed)}
	prof := cfg.Profile
	opts = append(opts, sim.WithHooks(prof.Hooks()))
	if cfg.Trace != nil {
		opts = append(opts, sim.WithTrace(cfg.Trace))
	}
	if cfg.Horizon > 0 {
		opts = append(opts, sim.WithHorizon(cfg.Horizon))
	}
	k := sim.NewKernel(opts...)
	k.ArmFaults(cfg.FaultRate, cfg.FaultSeed, cfg.Seed)
	s := &System{
		k:         k,
		prof:      prof,
		rng:       k.Rand().Split(),
		domains:   make(map[string]*Domain),
		objHome:   make(map[kobj.Object]*Domain),
		inodeHome: make(map[*vfs.Inode]*Domain),
	}
	s.hostDomain = &Domain{
		name: "host",
		kind: HostDomain,
		ns:   kobj.NewNamespace("host"),
		fs:   vfs.NewFS(),
	}
	s.domains["host"] = s.hostDomain
	return s
}

// Reset returns the machine to the state NewSystem(cfg) would build while
// retaining allocated capacity: the kernel's event queue and process
// structures, the host namespace, filesystem and domain tables, and this
// system's own process structures are all reused in place. Kernel objects,
// i-nodes, open-file entries and non-host domains are not dropped but
// retired to per-type free pools, so the next trial's creates reinitialize
// recycled structures instead of allocating (the namespace/filesystem
// still look exactly fresh: lookups miss, creates report created=true). A
// reset system replays exactly like a fresh one for equal configs. Reset
// must only be called after Run has returned with every process finished
// (a pooled system that deadlocked or was stopped must be discarded
// instead).
func (s *System) Reset(cfg Config) {
	// Assign the profile first so the hooks adapter binds to the long-lived
	// field: cfg stays on the stack and ResetTo avoids the option-closure
	// allocations of the variadic Reset.
	s.prof = cfg.Profile
	s.k.ResetTo(cfg.Seed, s.prof.Hooks(), cfg.Trace, cfg.Horizon)
	// ResetTo cleared the fault plane; re-arm it for the trial ahead.
	s.k.ArmFaults(cfg.FaultRate, cfg.FaultSeed, cfg.Seed)
	// Same derivation as NewSystem's Split: one draw from the root stream.
	s.rng.Reseed(s.k.Rand().Uint64())
	clear(s.objHome)
	clear(s.inodeHome)
	//lint:allow detnondet each domain retires into its own namespace/filesystem pools; domain order is unobservable
	for name, d := range s.domains {
		if d == s.hostDomain {
			continue
		}
		if d.privNS != nil {
			d.privNS.Retire()
		}
		if d.privFS != nil {
			d.privFS.Retire()
		}
		if len(s.freeDomains) < freeDomainCap {
			s.freeDomains = append(s.freeDomains, d)
		}
		delete(s.domains, name)
	}
	s.hostDomain.ns.Retire()
	s.hostDomain.fs.Retire()
	s.domains["host"] = s.hostDomain
	for i, p := range s.procs {
		s.free = append(s.free, p)
		s.procs[i] = nil
	}
	s.procs = s.procs[:0]
}

// Release tears the machine down: every process coroutine is unwound so
// nothing pins the machine in memory. Called on machines evicted from the
// reuse pool or abandoned after a failed run; a released machine may be
// pooled again but respawns from scratch.
func (s *System) Release() { s.k.Release() }

// Detach drops the machine's references into the run that just used it —
// the caller's trace and the spawned process bodies — so a machine parked
// in the reuse pool retains nothing of the previous trial. Reset
// re-populates all of it on the next use.
func (s *System) Detach() {
	s.k.DetachTrace()
	for _, p := range s.procs {
		p.body = nil
	}
}

// Kernel exposes the simulation kernel (experiment drivers need Run/Now).
func (s *System) Kernel() *sim.Kernel { return s.k }

// Profile returns the machine's timing personality.
func (s *System) Profile() *timing.Profile { return &s.prof }

// Host returns the host domain.
func (s *System) Host() *Domain { return s.hostDomain }

// HostFS returns the host filesystem.
func (s *System) HostFS() *vfs.FS { return s.hostDomain.fs }

// Run executes the simulation to completion.
func (s *System) Run() error { return s.k.Run() }

// Now returns the current virtual time.
func (s *System) Now() sim.Time { return s.k.Now() }

// takeDomain pops a recycled Domain structure or allocates a fresh one.
func (s *System) takeDomain() *Domain {
	if n := len(s.freeDomains); n > 0 {
		d := s.freeDomains[n-1]
		s.freeDomains[n-1] = nil
		s.freeDomains = s.freeDomains[:n-1]
		return d
	}
	return &Domain{}
}

// AddSandbox creates a sandbox domain. Sandboxed processes resolve names
// in the host scope (that is what the channel exploits) but every
// signaling op pays the sandbox crossing penalty.
func (s *System) AddSandbox(name string) *Domain {
	d := s.takeDomain()
	d.name, d.kind, d.hv = name, SandboxDomain, NoHypervisor
	d.ns, d.fs = s.hostDomain.ns, s.hostDomain.fs
	s.domains[name] = d
	return d
}

// AddVM creates a VM guest domain under the given hypervisor. Guests get a
// session-local object namespace. VMware guests additionally get a fully
// private filesystem; Hyper-V and KVM guests see the host FS (the shared
// read-only file the channels use). Recycled domains reuse their retired
// private namespace/filesystem tables.
func (s *System) AddVM(name string, hv Hypervisor) *Domain {
	d := s.takeDomain()
	d.name, d.kind, d.hv = name, VMDomain, hv
	if d.privNS == nil {
		d.privNS = kobj.NewNamespace(name)
	} else {
		d.privNS.SetName(name)
	}
	d.ns, d.fs = d.privNS, s.hostDomain.fs
	if hv == VMwareT2 {
		if d.privFS == nil {
			d.privFS = vfs.NewFS()
		}
		d.fs = d.privFS
	}
	s.domains[name] = d
	return d
}

// Domain looks up a domain by name.
func (s *System) Domain(name string) (*Domain, bool) {
	d, ok := s.domains[name]
	return d, ok
}

// Spawn starts a process in domain d. After a Reset, finished process
// structures (handle/fd tables and the body trampoline included) are
// recycled in place, so respawning on a pooled machine allocates nothing.
func (s *System) Spawn(name string, d *Domain, body func(*Proc)) *Proc {
	var p *Proc
	if n := len(s.free); n > 0 {
		p = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		p.sys, p.dom, p.name = s, d, name
		p.rng.Reseed(s.rng.Uint64()) // same derivation as Split
		p.handles.Reset()
		p.fds.Reset()
		p.hcross = p.hcross[:0]
		p.fdcross = p.fdcross[:0]
		p.blocked = false
		p.blockStart = 0
		p.waitObj = nil
		p.waitIn, p.waitFile = nil, nil
		p.waitRv = nil
		clear(p.pendingSignals)
		p.sigWaiting = -1
	} else {
		p = &Proc{
			sys:            s,
			dom:            d,
			name:           name,
			rng:            s.rng.Split(),
			handles:        kobj.NewHandleTable(),
			fds:            vfs.NewFDTable(),
			pendingSignals: make(map[int]int),
			sigWaiting:     -1,
		}
		// The trampoline closes over the stable p only, so it is built once
		// per structure and survives recycling; the body of the current
		// spawn is read from the field.
		p.bodyFn = func(*sim.Proc) { p.body(p) }
	}
	p.body = body
	p.sp = s.k.Spawn(name, p.bodyFn)
	s.procs = append(s.procs, p)
	return p
}

// objectNamespace returns the namespace in which a process from domain d
// creates or opens an object, given whether the object is file-backed.
// File-backed objects on file-sharing hypervisors resolve in the host
// scope; identity-only objects resolve per session.
func (s *System) objectNamespace(d *Domain, fileBacked bool) *kobj.Namespace {
	if d.sharesHostObjects() {
		return s.hostDomain.ns
	}
	if fileBacked && d.sharesHostFiles() {
		return s.hostDomain.ns
	}
	return d.ns
}

// registerObject records the home domain of a newly created object. For
// objects registered in the host scope by a non-host process (file-backed
// objects from VMs, anything from sandboxes) the home is the host: both
// endpoints then pay the crossing penalty, matching the paper's slower
// cross-VM channel.
func (s *System) registerObject(obj kobj.Object, ns *kobj.Namespace, creator *Domain) {
	home := creator
	if ns == s.hostDomain.ns && creator.kind != HostDomain {
		home = s.hostDomain
	}
	s.objHome[obj] = home
}

// crossingFor reports whether an op by a process in domain d on obj
// crosses an isolation boundary.
func (s *System) crossingFor(d *Domain, obj kobj.Object) bool {
	home, ok := s.objHome[obj]
	if !ok {
		return false
	}
	return home != d
}

// registerInode records the home domain of a created file.
func (s *System) registerInode(in *vfs.Inode, creator *Domain) {
	home := creator
	if creator.fs == s.hostDomain.fs && creator.kind != HostDomain {
		home = s.hostDomain
	}
	s.inodeHome[in] = home
}

// inodeCrossing reports whether d's access to in crosses a boundary.
func (s *System) inodeCrossing(d *Domain, in *vfs.Inode) bool {
	home, ok := s.inodeHome[in]
	if !ok {
		return false
	}
	return home != d
}

// CreateSharedFile creates a host file outside any process context — the
// attack's "selected critical resources" preparatory work (paper Table I).
// Its home domain is the host, so non-host accessors pay crossing costs.
func (s *System) CreateSharedFile(path string, size int64, readOnly, mandatory bool) (*vfs.Inode, error) {
	in, err := s.hostDomain.fs.Create(path, size, readOnly, mandatory)
	if err != nil {
		return nil, err
	}
	s.registerInode(in, s.hostDomain)
	return in, nil
}

// ArmWatchdog schedules a periodic virtual-time scan that force-wakes
// any process blocked longer than patience with no wake in flight,
// delivering WaitTimeout to its park (the blocking syscall then returns
// ErrTimedOut, or WaitTimeout for WaitForSingleObject/SigWait). This is
// the self-healing layer's deadlock valve: a wake lost to the fault
// plane leaves its waiter parked forever, and the watchdog converts
// that into a timeout the protocol can diagnose and recover from. The
// scan closure is built once and reused; Reset clears the scheduled
// event, so the watchdog must be re-armed per trial. The watchdog's
// own rescue wakes bypass the fault plane (sim.Proc.WakeDirect).
func (s *System) ArmWatchdog(period, patience sim.Duration) {
	s.watchPeriod, s.watchPatience = period, patience
	if s.watchFn == nil {
		s.watchFn = func() {
			if s.k.Live() == 0 {
				return // trial over: let the queue drain
			}
			s.TimeoutBlocked(s.watchPatience)
			s.k.After(s.watchPeriod, s.watchFn)
		}
	}
	s.k.After(period, s.watchFn)
}

// TimeoutBlocked force-times-out every process blocked for at least
// minBlocked that has no undelivered wake: each is removed from its
// wait queue (the same unwind hook a crash runs) and woken with
// WaitTimeout. It returns how many processes were rescued.
func (s *System) TimeoutBlocked(minBlocked sim.Duration) int {
	n := 0
	for _, p := range s.procs {
		if !p.blocked || p.blockedFor() < minBlocked {
			continue
		}
		if s.k.PendingWakeFor(p.sp) {
			continue // its wake is in flight; delivery will unblock it
		}
		p.cancelWait()
		p.sp.WakeDirect(0, WaitTimeout)
		n++
	}
	return n
}

// WaitSnapshot appends one "proc→resource" edge per currently blocked
// process — the wait-for picture a deadlock diagnosis needs. The core
// layer captures it into ErrDeadlock before releasing the machine.
func (s *System) WaitSnapshot(buf []string) []string {
	for _, p := range s.procs {
		if !p.blocked {
			continue
		}
		res := "unknown"
		switch {
		case p.waitObj != nil:
			res = p.waitObj.Type().String() + ":" + p.waitObj.Name()
		case p.waitIn != nil:
			res = "flock:" + p.waitIn.Path()
		case p.waitRv != nil:
			res = "rendezvous"
		case p.sigWaiting >= 0:
			res = "signal"
		}
		buf = append(buf, p.name+"→"+res)
	}
	return buf
}

// wake delivers wake-ups to the waiters returned by a kobj/vfs operation
// performed by caller. Each waiter pays scheduler delivery cost and a
// crossing penalty when the signal traverses an isolation boundary.
func (s *System) wake(caller *Proc, waiters []kobj.Waiter, result int) {
	for _, w := range waiters {
		p, ok := w.(*Proc)
		if !ok {
			panic(fmt.Sprintf("osmodel: foreign waiter %T", w))
		}
		delay := s.prof.Cost(p.rng, timing.OpWakeDeliver)
		if caller != nil && caller.dom != p.dom {
			delay += s.prof.Cross(p.rng)
		}
		p.sp.Wake(delay, result)
	}
}

// wakeVFS adapts vfs waiter lists.
func (s *System) wakeVFS(caller *Proc, waiters []vfs.Waiter, result int) {
	conv := s.convBuf[:0]
	for _, w := range waiters {
		conv = append(conv, w.(*Proc))
	}
	s.convBuf = conv
	s.wake(caller, conv, result)
}
