// Package timing provides the calibrated cost and noise model for the
// simulated operating systems. Every syscall the covert channels issue is
// charged a profile-specific cost plus jitter, sleeps pay scheduler wake-up
// latency, and time spent inside constraint states accrues stochastic
// "system blocking" outliers. These are the effects that shape the paper's
// BER/TR curves (Fig. 9, Fig. 10); the constants in calib.go are tuned so
// the reproduction lands in the paper's bands (calib.go lists the
// calibration targets).
package timing

// Op identifies a priced syscall-level operation.
type Op int

// Priced operations. The channel protocols are expressed as sequences of
// these; transmission rate differences between mechanisms (e.g. Semaphore's
// 6-instruction bit vs flock's 3) emerge from their op sequences.
const (
	OpTimestamp    Op = iota // read a high-resolution clock
	OpJudge                  // branch on the data bit / decoded value
	OpLock                   // acquire a file lock (flock / LockFileEx)
	OpUnlock                 // release a file lock
	OpSemP                   // semaphore P (down)
	OpSemV                   // semaphore V (up)
	OpMutexAcquire           // mutex acquire
	OpMutexRelease           // mutex release
	OpSet                    // SetEvent
	OpReset                  // ResetEvent (manual-reset objects)
	OpTimerSet               // program a waitable timer
	OpWaitRegister           // enter WaitForSingleObject / blocking queue
	OpWakeDeliver            // scheduler delivering a wake-up to a waiter
	OpOpen                   // open an existing named object / file
	OpCreate                 // create a named object / file
	OpClose                  // close a handle / fd
	OpRead                   // read a (pseudo-)file
	OpBarrier                // one side of the fine-grained inter-bit barrier
	OpFutexWait              // futex(2) FUTEX_WAIT entry
	OpFutexWake              // futex(2) FUTEX_WAKE
	OpCondWait               // pthread_cond_wait entry (mutex drop included)
	OpCondSignal             // pthread_cond_signal
	OpWrite                  // buffered write dirtying page-cache pages
	OpFsync                  // fsync(2) base cost on a clean journal
	OpPageFlush              // writing one dirty page back during fsync
	numOps
)

var opNames = [...]string{
	OpTimestamp:    "timestamp",
	OpJudge:        "judge",
	OpLock:         "lock",
	OpUnlock:       "unlock",
	OpSemP:         "semP",
	OpSemV:         "semV",
	OpMutexAcquire: "mutexAcquire",
	OpMutexRelease: "mutexRelease",
	OpSet:          "setEvent",
	OpReset:        "resetEvent",
	OpTimerSet:     "timerSet",
	OpWaitRegister: "waitRegister",
	OpWakeDeliver:  "wakeDeliver",
	OpOpen:         "open",
	OpCreate:       "create",
	OpClose:        "close",
	OpRead:         "read",
	OpBarrier:      "barrier",
	OpFutexWait:    "futexWait",
	OpFutexWake:    "futexWake",
	OpCondWait:     "condWait",
	OpCondSignal:   "condSignal",
	OpWrite:        "write",
	OpFsync:        "fsync",
	OpPageFlush:    "pageFlush",
}

func (o Op) String() string {
	if o >= 0 && int(o) < len(opNames) {
		return opNames[o]
	}
	return "op?"
}

// OSKind selects the modeled operating system personality.
type OSKind int

// Modeled operating systems.
const (
	Windows OSKind = iota // kernel objects: Event, Mutex, Semaphore, Timer, FileLockEX
	Linux                 // flock on the VFS three-table structure
)

func (o OSKind) String() string {
	if o == Windows {
		return "windows"
	}
	return "linux"
}

// Isolation selects the deployment scenario from the paper's threat model.
type Isolation int

// Deployment scenarios (paper §III, §V).
const (
	Local   Isolation = iota // both processes on the host
	Sandbox                  // Trojan inside Firejail/Sandboxie
	VM                       // Trojan and Spy in different VMs
)

func (i Isolation) String() string {
	switch i {
	case Local:
		return "local"
	case Sandbox:
		return "sandbox"
	case VM:
		return "vm"
	default:
		return "isolation?"
	}
}
