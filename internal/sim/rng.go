package sim

import (
	"encoding/binary"
	"math"
	"math/bits"
)

const (
	// gammaMain is the splitmix64 Weyl increment of the primary stream.
	gammaMain = 0x9e3779b97f4a7c15
	// gammaJitter is the increment of the dedicated jitter substream. A
	// distinct odd constant makes the substream decorrelated from the
	// primary stream even though both derive from the same seed, and —
	// crucially — lets the jitter indices be prefetched in bulk (the
	// deviate plane) without perturbing the primary stream's draw order.
	gammaJitter = 0xd1342543de82ef95
	// jitterPhase offsets the substream's initial state so that equal
	// state values in the two streams still diverge from the first draw.
	jitterPhase = 0x6a09e667f3bcc909

	// jitterChunk is the index count one Uint64 of the substream yields.
	// jitterPlaneSize is the plane's bulk refill size, a multiple of
	// jitterChunk.
	jitterChunk     = 8
	jitterPlaneSize = 512
)

// RNG is a small, fast, deterministic random source (splitmix64 core).
// It is deliberately independent of math/rand so that simulation replay
// is stable across Go releases, and so independent subsystems can own
// decorrelated child streams via Split.
//
// Besides the primary stream it carries a jitter substream: a second
// splitmix64 state (different Weyl increment) that feeds quantized
// deviate indices for the timing layer's table-driven jitter. Keeping
// the substream separate means batching its refills into the deviate
// plane can never reorder primary-stream draws. The plane is an inline
// array — refilling it never allocates.
type RNG struct {
	state uint64

	// Jitter substream state: jstate is the splitmix64 counter, plane
	// holds unpacked indices, and plane[jpos:jpos+jn] are the ones not
	// yet served. Reseed resets all of it so replays from equal seeds
	// stay identical across pooling.
	jstate uint64
	jpos   uint32
	jn     uint32
	plane  [jitterPlaneSize]uint8
}

// NewRNG returns a generator seeded with seed. Seed 0 is valid.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed resets the generator in place to the stream NewRNG(seed) would
// produce. Pooled simulation state uses it to re-derive fresh streams
// without allocating. The jitter substream (and any prefetched deviate
// plane) is cleared too: prefetched-but-unserved indices are stream
// state just like the old Box–Muller spare was.
func (r *RNG) Reseed(seed uint64) {
	r.state = seed + gammaMain
	r.jstate = (seed + gammaMain) ^ jitterPhase
	r.jpos, r.jn = 0, 0
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	r.state += gammaMain
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// jitterUint64 returns the next 64 bits of the jitter substream.
func (r *RNG) jitterUint64() uint64 {
	r.jstate += gammaJitter
	z := r.jstate
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split derives an independent child stream. The parent advances once, so
// successive Splits yield decorrelated children.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0,n). It panics if n <= 0. The
// reduction is Lemire's multiply-shift with rejection, so every residue
// is exactly equally likely (the previous `Uint64 % n` carried a bias of
// up to n/2^64 toward small residues).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	hi, lo := bits.Mul64(r.Uint64(), uint64(n))
	if lo < uint64(n) {
		thresh := -uint64(n) % uint64(n)
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), uint64(n))
		}
	}
	return int(hi)
}

// Bool returns a fair coin flip.
func (r *RNG) Bool() bool { return r.Uint64()&1 == 1 }

// Ziggurat tables for NormFloat64 (Marsaglia & Tsang, 128 layers, scaled
// to a signed 53-bit mantissa draw). zigK are the acceptance thresholds
// (|j| < zigK[i] accepts without any float comparison), zigW the x/2^52
// multipliers, zigF the density at each layer edge for the wedge test.
const (
	zigR = 3.442619855899      // x_1: the start of the tail
	zigV = 9.91256303526217e-3 // area of each of the 128 blocks
	zigM = 1 << 52             // scale of the signed mantissa draw
)

var (
	zigK [128]uint64
	zigW [128]float64
	zigF [128]float64
)

func init() {
	d, t := zigR, zigR
	f := math.Exp(-0.5 * d * d)
	q := zigV / f
	zigK[0] = uint64(d / q * zigM)
	zigK[1] = 0
	zigW[0] = q / zigM
	zigW[127] = d / zigM
	zigF[0] = 1.0
	zigF[127] = f
	for i := 126; i >= 1; i-- {
		d = math.Sqrt(-2 * math.Log(zigV/d+math.Exp(-0.5*d*d)))
		zigK[i+1] = uint64(d / t * zigM)
		t = d
		zigF[i] = math.Exp(-0.5 * d * d)
		zigW[i] = d / zigM
	}
}

// NormFloat64 returns a standard normal deviate via the ziggurat method:
// one Uint64, one table compare and one multiply in the ~98.8% common
// case; the transcendental wedge/tail fallback (normSlow) runs on the
// remaining layers only. The layer index uses bits 0–6 and the mantissa
// bits 11–63 of the same word, so the two are independent.
//
//mes:allocfree
func (r *RNG) NormFloat64() float64 {
	for {
		u := r.Uint64()
		j := int64(u) >> 11 // signed 53-bit uniform
		i := u & 127
		a := j
		if a < 0 {
			a = -a
		}
		if uint64(a) < zigK[i] {
			return float64(j) * zigW[i]
		}
		if x, ok := r.normSlow(j, i); ok {
			return x
		}
	}
}

// normSlow handles the ziggurat tail (i == 0, Marsaglia's exact method)
// and the wedge rejection test for the other layers.
func (r *RNG) normSlow(j int64, i uint64) (float64, bool) {
	if i == 0 {
		for {
			x := -math.Log(r.Float64()) / zigR
			y := -math.Log(r.Float64())
			if y+y >= x*x {
				if j > 0 {
					return zigR + x, true
				}
				return -zigR - x, true
			}
		}
	}
	x := float64(j) * zigW[i]
	if zigF[i]+r.Float64()*(zigF[i-1]-zigF[i]) < math.Exp(-0.5*x*x) {
		return x, true
	}
	return 0, false
}

// quantNorm is the 256-level quantized standard normal: level i is the
// inverse normal CDF at the bin midpoint (i+0.5)/256, then the whole
// table is rescaled so its variance is exactly 1 (midpoint quantization
// alone lands slightly under; the mean is exactly 0 by symmetry). The
// levels span ≈ ±2.89σ — jitter tails beyond that are modeled separately
// by the lognormal hazard channel, not by per-op Gaussian noise.
var quantNorm = func() (t [256]float64) {
	var m2 float64
	for i := range t {
		t[i] = invNormCDF((float64(i) + 0.5) / 256)
		m2 += t[i] * t[i]
	}
	s := math.Sqrt(m2 / 256)
	for i := range t {
		t[i] /= s
	}
	return t
}()

// invNormCDF is Acklam's rational approximation to the inverse standard
// normal CDF (max relative error ≈ 1.15e-9 on (0,1)); table construction
// only, never on a hot path.
func invNormCDF(p float64) float64 {
	const plow = 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((-7.784894002430293e-03*q-3.223964580411365e-01)*q-2.400758277161838e+00)*q-2.549732539343734e+00)*q+4.374664141464968e+00)*q + 2.938163982698783e+00) /
			((((7.784695709041462e-03*q+3.224671290700398e-01)*q+2.445134137142996e+00)*q+3.754408661907416e+00)*q + 1)
	case p > 1-plow:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((-7.784894002430293e-03*q-3.223964580411365e-01)*q-2.400758277161838e+00)*q-2.549732539343734e+00)*q+4.374664141464968e+00)*q + 2.938163982698783e+00) /
			((((7.784695709041462e-03*q+3.224671290700398e-01)*q+2.445134137142996e+00)*q+3.754408661907416e+00)*q + 1)
	default:
		q := p - 0.5
		rr := q * q
		return (((((-3.969683028665376e+01*rr+2.209460984245205e+02)*rr-2.759285104469687e+02)*rr+1.383577518672690e+02)*rr-3.066479806614716e+01)*rr + 2.506628277459239e+00) * q /
			(((((-5.447609879822406e+01*rr+1.615858368580409e+02)*rr-1.556989798598866e+02)*rr+6.680131188771972e+01)*rr-1.328068155288572e+01)*rr + 1)
	}
}

// QuantNorm returns level i of the 256-level quantized standard normal.
// Timing code pairs it with JitterIndex when sigma is dynamic, or bakes
// sigma×QuantNorm products into per-op tables when sigma is static.
//
//mes:allocfree
func QuantNorm(i uint8) float64 { return quantNorm[i] }

// JitterIndex returns the next quantized-deviate index from the jitter
// substream. The serving order depends only on the seed — never on when
// the plane is refilled.
//
//mes:allocfree
func (r *RNG) JitterIndex() uint8 {
	if r.jn == 0 {
		r.jitterRefill()
	}
	v := r.plane[r.jpos]
	r.jpos++
	r.jn--
	return v
}

// JitterNorm returns the next quantized standard normal deviate from the
// jitter substream: QuantNorm(JitterIndex()).
//
//mes:allocfree
func (r *RNG) JitterNorm() float64 { return quantNorm[r.JitterIndex()] }

// PrefillJitter eagerly fills the jitter deviate plane so the trial ahead
// draws its quantized timing indices from a table vectorized up front —
// its first priced op never stalls on a lazy refill. Purely a buffering
// decision: the served index sequence is a function of the substream
// state alone, so output is byte-identical with or without the call.
// No-op while the plane still holds unserved indices. The kernel calls
// it once per reset on modeled (non-NopHooks) kernels; child RNGs from
// Split stay lazy — many never draw jitter at all.
func (r *RNG) PrefillJitter() {
	if r.jn == 0 {
		r.jitterRefill()
	}
}

// jitterRefill unpacks the next jitterPlaneSize/jitterChunk substream
// words into the plane, each low-byte-first.
//
//mes:allocfree
func (r *RNG) jitterRefill() {
	for i := 0; i < jitterPlaneSize; i += jitterChunk {
		binary.LittleEndian.PutUint64(r.plane[i:i+jitterChunk], r.jitterUint64())
	}
	r.jpos, r.jn = 0, jitterPlaneSize
}

// ExpFloat64 returns an exponential deviate with mean 1.
func (r *RNG) ExpFloat64() float64 {
	var u float64
	for {
		u = r.Float64()
		if u > 1e-300 {
			break
		}
	}
	return -math.Log(u)
}

// LogNormal returns exp(N(mu, sigma)).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Bernoulli reports true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Poisson returns a Poisson deviate with the given mean (Knuth's method
// for small means, normal approximation above 64 to stay O(1)).
//
// The hazard channels call this with mean ≪ 1 on every priced op, so the
// small-mean path short-circuits the overwhelmingly common zero outcome
// before paying math.Exp: u ≤ 1-mean implies u ≤ exp(-mean). The
// shortcut consumes the same single uniform the full Knuth loop would,
// so the output stream is bit-identical with or without it.
func (r *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		// The normal approximation is only trustworthy in the bulk of
		// the distribution; clamp the deviate to ±6σ so a pathological
		// tail draw cannot return a count wildly outside [0, 2·mean].
		z := r.NormFloat64()
		if z > 6 {
			z = 6
		} else if z < -6 {
			z = -6
		}
		v := mean + math.Sqrt(mean)*z
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	p := r.Float64()
	if p <= 1-mean {
		return 0
	}
	l := math.Exp(-mean)
	k := 0
	for {
		if p <= l {
			return k
		}
		k++
		p *= r.Float64()
	}
}
