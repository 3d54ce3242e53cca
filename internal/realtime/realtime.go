// Package realtime runs the MES channel protocols on real goroutines with
// wall-clock timing, complementing the deterministic simulation in
// internal/core. Goroutines stand in for the paper's processes (portable
// cross-process synchronization without cgo is awkward)
// and Go sync primitives stand in for the kernel objects:
//
//   - Event            → a 1-buffered channel (auto-reset event semantics)
//   - Mutex / flock    → a FIFO ticket lock (the fair competition §V.B needs)
//   - Semaphore        → a 1-slot token channel
//
// The Go runtime scheduler adds orders of magnitude more jitter than a
// tuned native testbed, so the default time parameters are milliseconds
// rather than the paper's microseconds; the protocol structure is
// identical.
package realtime

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"mes/internal/codec"
	"mes/internal/core"
	"mes/internal/metrics"
	"mes/internal/sim"
)

// Mechanism selects the wall-clock channel flavour.
type Mechanism int

// Wall-clock mechanisms.
const (
	Event     Mechanism = iota // cooperation: signal after a data-dependent wait
	Mutex                      // contention: hold a fair lock for a data-dependent time
	Semaphore                  // contention: hold a binary semaphore
)

func (m Mechanism) String() string {
	switch m {
	case Event:
		return "Event"
	case Mutex:
		return "Mutex"
	case Semaphore:
		return "Semaphore"
	default:
		return fmt.Sprintf("Mechanism(%d)", int(m))
	}
}

// FairLock is a FIFO ticket lock: acquisitions are granted strictly in
// request order, which is the fair competition regime the contention
// channels require (§V.B). sync.Mutex makes no such guarantee.
type FairLock struct {
	mu      sync.Mutex
	cond    *sync.Cond
	next    uint64
	serving uint64
}

// NewFairLock builds an unlocked FIFO lock.
func NewFairLock() *FairLock {
	l := &FairLock{}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// Lock blocks until this caller's ticket is served.
func (l *FairLock) Lock() {
	l.mu.Lock()
	t := l.next
	l.next++
	for l.serving != t {
		l.cond.Wait()
	}
	l.mu.Unlock()
}

// Unlock serves the next ticket.
func (l *FairLock) Unlock() {
	l.mu.Lock()
	l.serving++
	l.cond.Broadcast()
	l.mu.Unlock()
}

// Params are wall-clock channel time parameters. Zero values select
// defaults sized for the Go scheduler's jitter.
type Params struct {
	TT1, TT0 time.Duration // contention
	TW0, TI  time.Duration // cooperation
	// FollowerLag is the Spy's head-start concession after each barrier.
	FollowerLag time.Duration
}

func (p Params) withDefaults(m Mechanism) Params {
	if m == Event {
		if p.TW0 == 0 {
			p.TW0 = 200 * time.Microsecond
		}
		if p.TI == 0 {
			p.TI = 3 * time.Millisecond
		}
		return p
	}
	if p.TT1 == 0 {
		p.TT1 = 6 * time.Millisecond
	}
	if p.TT0 == 0 {
		p.TT0 = 2 * time.Millisecond
	}
	if p.FollowerLag == 0 {
		p.FollowerLag = 300 * time.Microsecond
	}
	return p
}

// Config describes one wall-clock transmission.
type Config struct {
	Mechanism Mechanism
	Payload   codec.Bits
	Params    Params
	SyncLen   int // preamble symbols (default 8)
}

// Result reports a wall-clock transmission.
type Result struct {
	ReceivedBits codec.Bits
	Latencies    []time.Duration
	BitErrors    int
	BER          float64
	TRKbps       float64
	Elapsed      time.Duration
	SyncOK       bool
}

// Run transmits cfg.Payload between two goroutines and decodes the
// receiver's measurements with the same preamble-calibrated decoder the
// simulated channels use.
func Run(cfg Config) (*Result, error) {
	if len(cfg.Payload) == 0 {
		return nil, errors.New("realtime: empty payload")
	}
	par := cfg.Params.withDefaults(cfg.Mechanism)
	syncLen := cfg.SyncLen
	if syncLen == 0 {
		syncLen = 8
	}
	paySyms, err := codec.Pack(cfg.Payload, 1)
	if err != nil {
		return nil, err
	}
	syms := append([]int{0}, append(codec.SyncSymbols(syncLen, 1), paySyms...)...)

	var lat []time.Duration
	var payStart, payEnd time.Time

	switch cfg.Mechanism {
	case Event:
		evt := make(chan struct{}, 1)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // trojan
			defer wg.Done()
			for _, sym := range syms {
				time.Sleep(par.TW0 + time.Duration(sym)*par.TI)
				evt <- struct{}{}
			}
		}()
		go func() { // spy
			defer wg.Done()
			for i := range syms {
				t0 := time.Now()
				<-evt
				lat = append(lat, time.Since(t0))
				if i == syncLen {
					payStart = time.Now()
				}
			}
			payEnd = time.Now()
		}()
		wg.Wait()

	case Mutex, Semaphore:
		var lock interface {
			Lock()
			Unlock()
		}
		if cfg.Mechanism == Mutex {
			lock = NewFairLock()
		} else {
			lock = newTokenSemaphore()
		}
		barrier := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // trojan (leader)
			defer wg.Done()
			for _, sym := range syms {
				barrier <- struct{}{}
				if sym == 1 {
					lock.Lock()
					time.Sleep(par.TT1)
					lock.Unlock()
				} else {
					time.Sleep(par.TT0)
				}
			}
		}()
		go func() { // spy (follower)
			defer wg.Done()
			for i := range syms {
				<-barrier
				time.Sleep(par.FollowerLag) // leader head start
				t0 := time.Now()
				lock.Lock()
				lock.Unlock()
				lat = append(lat, time.Since(t0))
				if i == syncLen {
					payStart = time.Now()
				}
			}
			payEnd = time.Now()
		}()
		wg.Wait()

	default:
		return nil, fmt.Errorf("realtime: unknown mechanism %v", cfg.Mechanism)
	}

	// Decode with the shared preamble-calibrated decoder.
	simLat := make([]sim.Duration, len(lat))
	for i, d := range lat {
		simLat[i] = sim.Duration(d)
	}
	dec, err := core.CalibrateDecoder(2, codec.SyncSymbols(syncLen, 1), simLat[1:1+syncLen])
	if err != nil {
		return nil, err
	}
	bits, err := codec.Unpack(dec.DecodeAll(simLat[1+syncLen:]), 1)
	if err != nil {
		return nil, err
	}
	if len(bits) > len(cfg.Payload) {
		bits = bits[:len(cfg.Payload)]
	}
	res := &Result{
		ReceivedBits: bits,
		Latencies:    lat,
		Elapsed:      payEnd.Sub(payStart),
	}
	res.BitErrors, res.BER = metrics.BER(cfg.Payload, bits)
	res.SyncOK = true
	decSync := dec.DecodeAll(simLat[1 : 1+syncLen])
	for i, s := range codec.SyncSymbols(syncLen, 1) {
		if decSync[i] != s {
			res.SyncOK = false
		}
	}
	if res.Elapsed > 0 {
		res.TRKbps = float64(len(cfg.Payload)) / res.Elapsed.Seconds() / 1000
	}
	return res, nil
}

// tokenSemaphore is a binary semaphore on a 1-slot channel.
type tokenSemaphore struct{ ch chan struct{} }

func newTokenSemaphore() *tokenSemaphore {
	return &tokenSemaphore{ch: make(chan struct{}, 1)}
}

func (s *tokenSemaphore) Lock()   { s.ch <- struct{}{} } // P
func (s *tokenSemaphore) Unlock() { <-s.ch }             // V
