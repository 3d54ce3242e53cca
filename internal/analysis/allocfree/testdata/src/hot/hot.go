// Package hot is an allocfree fixture: one annotated hot path
// exercising the closure, fmt and boxing rules, plus unannotated code
// that must stay silent.
package hot

import "fmt"

type point struct{ x, y int }

var global interface{}

func consume(v interface{}) { global = v }

func consumeAll(vs ...interface{}) { global = vs }

//mes:allocfree
func hotPath(n int, p *point, pre []interface{}) {
	f := func() int { return n } // want "function literal in an allocfree function"
	_ = f

	fmt.Println(n) // want "fmt\\.Println in an allocfree function"

	consume(n)           // want "implicit conversion of int to interface\\{\\} boxes on the heap"
	consume(point{n, n}) // want "implicit conversion of point to interface\\{\\} boxes on the heap"
	consume(p)           // pointer-shaped: fits the interface word
	consume(nil)         // nil converts without allocating
	consume(42)          // constants are interned, not boxed
	consumeAll(pre...)   // spreading an existing []interface{} boxes nothing

	if n > 0 {
		fmt.Println("branches are checked too") // want "fmt\\.Println in an allocfree function"
	}

	//lint:allow allocfree one-shot cold diagnostic, runs outside the measured loop
	fmt.Println("cold")
}

//mes:allocfree
func boxedStores(n int) interface{} {
	var v interface{}
	v = n // want "implicit conversion of int to interface\\{\\} boxes on the heap"
	_ = v
	var w interface{} = n // want "implicit conversion of int to interface\\{\\} boxes on the heap"
	_ = w
	return n // want "implicit conversion of int to interface\\{\\} boxes on the heap"
}

// notAnnotated may do what it likes.
func notAnnotated(n int) {
	consume(n)
	fmt.Println(func() int { return n }())
}

// Mirrors of the PR 7 RNG hot shapes: table-driven rejection sampling,
// bulk buffer refill, and quantized lookup are all allocation-free
// constructs and must pass the analyzer silently.

var (
	layerEdge  [128]uint64
	layerScale [128]float64
	quantTable [256]float64
)

type prng struct {
	state uint64
	pos   uint32
	n     uint32
	plane [512]uint8
}

func (r *prng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return r.state
}

// zigDraw mirrors RNG.NormFloat64: an unbounded rejection loop over
// value-typed package tables, no escapes.
//
//mes:allocfree
func (r *prng) zigDraw() float64 {
	for {
		u := r.next()
		j := int64(u) >> 11
		i := u & 127
		a := j
		if a < 0 {
			a = -a
		}
		if uint64(a) < layerEdge[i] {
			return float64(j) * layerScale[i]
		}
	}
}

// refill mirrors RNG.jitterRefill: bulk-unpacking words into an inline
// byte array reslices the embedded array, which must not be read as an
// allocating construct.
//
//mes:allocfree
func (r *prng) refill() {
	for i := 0; i < len(r.plane); i += 8 {
		w := r.next()
		for b := 0; b < 8; b++ {
			r.plane[i+b] = uint8(w >> (8 * b))
		}
	}
	r.pos, r.n = 0, uint32(len(r.plane))
}

// quantLookup mirrors Profile.Cost's quantized fast path, and its doc
// comment carries the directive gofmt-style — after a blank // line in
// the group — which must still annotate the function (the violation
// below proves the annotation is seen).
//
//mes:allocfree
func (r *prng) quantLookup() float64 {
	if r.n == 0 {
		r.refill()
	}
	v := r.plane[r.pos]
	r.pos++
	r.n--
	consume(v) // want "implicit conversion of uint8 to interface\\{\\} boxes on the heap"
	return quantTable[v]
}

// Mirror of the coroutine handle's transfer calls: stored func values
// invoked through a field — method values and pre-bound closures stored
// before the hot path starts are not per-call closures.

type resumeHandle struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
}

// transferRound mirrors coroHandle.transferIn/transferOut: invoking the
// pre-bound resume and yield funcs through struct fields transfers
// control without allocating — the closures were built once at start,
// off the hot path.
//
//mes:allocfree
func (h *resumeHandle) transferRound() bool {
	h.next()
	return h.yield(struct{}{})
}

// Mirrors of the PR 10 fault-plane hot shapes: the per-consult substream
// draw (a Weyl increment through the splitmix64 finalizer), the
// threshold compare with its class-switch perturbation arithmetic, and
// the wake drop/delay decision are all allocation-free constructs and
// must pass the analyzer silently — the fault hooks sit on the
// Sleep/Wake paths the zero-alloc steady-state contract covers.

type faultKernel struct {
	fstate   uint64
	fthresh  uint64
	spurious uint64
	preempts uint64
	lost     uint64
	delayed  uint64
}

// faultDraw mirrors Kernel.faultUint64: one substream word per consult,
// pure integer mixing.
//
//mes:allocfree
func (k *faultKernel) faultDraw() uint64 {
	k.fstate += 0xbb67ae8584caa73b
	z := k.fstate
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// faultPerturb mirrors Kernel.faultSleep: threshold compare, class
// switch on the low nibble, duration arithmetic in place — no escapes.
//
//mes:allocfree
func (k *faultKernel) faultPerturb(total int64) int64 {
	if k.faultDraw() >= k.fthresh {
		return total
	}
	r := k.faultDraw()
	switch {
	case r&15 < 8:
		k.spurious++
		return total * int64(1+(r>>4)&3) / 8
	default:
		k.preempts++
		return total + 100*int64(1+(r>>4)&7)
	}
}

// faultGate mirrors Kernel.faultWake: the lose/delay decision returns a
// multi-value verdict with counters bumped in place.
//
//mes:allocfree
func (k *faultKernel) faultGate(delay int64) (int64, bool) {
	if k.faultDraw() >= k.fthresh {
		return delay, true
	}
	r := k.faultDraw()
	if r&15 < 8 {
		k.lost++
		return 0, false
	}
	k.delayed++
	return delay + 100*int64(1+(r>>4)&7), true
}
