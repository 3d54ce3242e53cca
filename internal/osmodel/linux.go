package osmodel

import (
	"mes/internal/sim"
	"mes/internal/timing"
	"mes/internal/vfs"
)

// Linux-personality syscalls: files resolved through the domain's
// filesystem view into the fd-table → file-table → i-node structure
// (paper §IV.B.2, Fig. 5) and flock on i-nodes.

// CreateHostFile creates a file in the process's filesystem view. The
// covert-channel files are created read-only with mandatory locking so
// the processes cannot simply write data into them (paper §IV.C).
func (p *Proc) CreateHostFile(path string, size int64, readOnly, mandatory bool) (*vfs.Inode, error) {
	p.exec(timing.OpCreate)
	in, err := p.dom.fs.Create(path, size, readOnly, mandatory)
	if err != nil {
		return nil, err
	}
	p.sys.registerInode(in, p.dom)
	return in, nil
}

// OpenFile opens path, returning a new file descriptor. Each open creates
// an independent open-file-table entry sharing the i-node.
func (p *Proc) OpenFile(path string, write bool) (int, error) {
	p.exec(timing.OpOpen)
	f, err := p.dom.fs.Open(path, write)
	if err != nil {
		return -1, err
	}
	fd := p.fds.Install(f)
	// Cache the crossing bit for the per-op fast path (crossFd): the
	// i-node's home domain is registered at creation, which precedes every
	// open.
	p.fdcross = append(p.fdcross, p.sys.inodeCrossing(p.dom, f.Inode()))
	return fd, nil
}

// file resolves a descriptor.
func (p *Proc) file(fd int) (*vfs.File, error) {
	f, ok := p.fds.Get(fd)
	if !ok {
		return nil, ErrBadFd
	}
	return f, nil
}

// Flock applies a flock operation to fd. LockNone releases (LOCK_UN);
// LockSh/LockEx block until granted unless nonblock (LOCK_NB) is set, in
// which case vfs.ErrWouldBlock is returned when the lock is busy.
func (p *Proc) Flock(fd int, kind vfs.LockKind, nonblock bool) error {
	f, err := p.file(fd)
	if err != nil {
		return err
	}
	in := f.Inode()
	if kind == vfs.LockNone {
		p.exec(timing.OpUnlock)
		p.crossFd(fd)
		p.sys.k.Record(p.sp, sim.SiteFlockUN, in.Path(), 0, 0)
		p.sys.wakeVFS(p, in.Unlock(f), WaitObject0)
		return nil
	}
	p.exec(timing.OpLock)
	p.crossFd(fd)
	site := sim.SiteFlockEX
	if kind == vfs.LockSh {
		site = sim.SiteFlockSH
	}
	p.sys.k.Record(p.sp, site, in.Path(), 0, 0)
	for {
		if in.TryFlock(f, kind) {
			return nil
		}
		if nonblock {
			return vfs.ErrWouldBlock
		}
		in.EnqueueFlock(f, kind, p)
		p.waitIn, p.waitFile = in, f
		v := p.park()
		if f.Held() == kind {
			// Fair mode: the lock was installed for us during promotion.
			return nil
		}
		if v == WaitTimeout {
			return ErrTimedOut // watchdog rescue: the holder is gone
		}
		// Unfair mode: we were woken to re-contend and may have lost the
		// race; try again (and possibly starve — paper §V.B).
	}
}

// WriteFile buffers pages of data through fd, dirtying them in the page
// cache and registering them in the filesystem journal. The write itself
// returns fast (it only touches memory); the cost is deferred to whoever
// commits the journal — the asymmetry the WriteSync channel exploits.
func (p *Proc) WriteFile(fd int, pages int) error {
	f, err := p.file(fd)
	if err != nil {
		return err
	}
	if !f.Writable() {
		return vfs.ErrReadOnly
	}
	p.exec(timing.OpWrite)
	in := f.Inode()
	p.crossFd(fd)
	p.sys.k.Record(p.sp, sim.SiteWrite, in.Path(), int64(pages), 0)
	p.dom.fs.MarkDirty(in, pages)
	return nil
}

// Fsync commits fd's file — and, through the shared journal, every other
// dirty page in the filesystem — to stable storage, charging the
// per-page writeback cost. It returns the number of pages flushed. The
// Spy of the WriteSync channel times this call: a clean journal returns
// at the base fsync cost, a journal the Trojan just dirtied takes
// pages × the page-flush cost longer (Sync+Sync's observable).
func (p *Proc) Fsync(fd int) (int, error) {
	f, err := p.file(fd)
	if err != nil {
		return 0, err
	}
	p.exec(timing.OpFsync)
	in := f.Inode()
	p.crossFd(fd)
	n := p.dom.fs.SyncJournal()
	for i := 0; i < n; i++ {
		p.exec(timing.OpPageFlush)
	}
	p.sys.k.Record(p.sp, sim.SiteFsync, in.Path(), int64(n), 0)
	return n, nil
}

// CloseFd closes a descriptor; the last close of an open file description
// releases its lock and wakes promoted waiters.
func (p *Proc) CloseFd(fd int) error {
	p.exec(timing.OpClose)
	f, ok := p.fds.Remove(fd)
	if !ok {
		return ErrBadFd
	}
	woken, err := p.dom.fs.Close(f)
	if err != nil {
		return err
	}
	p.sys.wakeVFS(p, woken, WaitObject0)
	return nil
}

// LockCount reads the number of held flocks from the process's /proc/locks
// view (the baseline container channel's observable).
func (p *Proc) LockCount() int {
	p.exec(timing.OpRead)
	return p.dom.fs.LockCount()
}

// ReadProcLocks reads the rendered /proc/locks pseudo-file.
func (p *Proc) ReadProcLocks() string {
	p.exec(timing.OpRead)
	return p.dom.fs.ProcLocks()
}
