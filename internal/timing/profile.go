package timing

import (
	"mes/internal/sim"
)

// Profile is a complete timing personality: per-op costs, sleep behavior,
// outlier hazard and scenario crossing penalties. Profiles are value types;
// ProfileFor and Noiseless hand out the OS × scenario variants.
type Profile struct {
	Name string
	OS   OSKind
	Iso  Isolation

	// OpCost holds the base cost of each priced operation.
	OpCost [numOps]sim.Duration
	// OpJitterFrac is the Gaussian sigma of op cost noise, as a fraction of
	// the base cost; OpJitterFloor is its minimum sigma.
	OpJitterFrac  float64
	OpJitterFloor sim.Duration

	// SleepFloor is the minimum effective sleep (the paper reports ~58µs to
	// wake a sleeping Linux process, §V.C). Requests below it are rounded up.
	SleepFloor sim.Duration
	// SleepOvershootMean/Sigma model scheduler wake-up lateness added to
	// every sleep. On the Windows profile this is the dominant per-bit
	// overhead of the cooperation channels (the Trojan paces with Sleep).
	SleepOvershootMean  sim.Duration
	SleepOvershootSigma sim.Duration

	// HazardRatePerSec is the Poisson rate of "system blocking" outliers
	// per second of constraint-state exposure; magnitudes are lognormal
	// with the given parameters (in microseconds). These outliers stretch
	// the Spy's *observed* release latency (the paper's Fig. 9(a) error
	// source: system blocking makes a '0' look like a '1'). Observation
	// delays beyond a full bit period correspond to the paper's discarded
	// rounds, so the link layer caps the per-bit total.
	HazardRatePerSec  float64
	HazardMagMuLogUs  float64
	HazardMagSigmaLog float64

	// Attempt-delay model for contention channels: with probability
	// AttemptProb per contended acquisition the Spy's lock attempt is late
	// (it was descheduled across the barrier exit), which *shortens* the
	// observed blocking time — the "limited accuracy to distinguish data"
	// that raises BER at small tt1 (Fig. 10's left side). Magnitudes are
	// lognormal (µs): only delays beyond tt1/2 flip a bit, so the effect
	// fades as tt1 grows.
	AttemptProb        float64
	AttemptMagMuLogUs  float64
	AttemptMagSigmaLog float64

	// CorruptProb is the per-measurement probability that the Spy's
	// observation is corrupted wholesale (it observed the neighbouring
	// bit's timing): the guard-band-independent BER floor. The link layer
	// substitutes the previous measurement.
	CorruptProb float64

	// Contended-acquisition miss model: the Spy is descheduled across the
	// release edge and re-acquires after the Trojan's hold, reading a short
	// latency (paper Fig. 10's right-side BER rise). Probability is
	// MissBase plus MissSlopePerUs for every µs the hold exceeds MissKnee.
	MissBase       float64
	MissKnee       sim.Duration
	MissSlopePerUs float64

	// BarrierLag is the follower's extra exit latency at the fine-grained
	// inter-bit barrier: the margin by which the Trojan (leader) reaches
	// the critical resource ahead of the Spy each bit (§V.B's
	// acquisition-order requirement).
	BarrierLag sim.Duration

	// CrossCost/CrossJitter are charged per signaling op that crosses an
	// isolation boundary (sandbox wall or VM path).
	CrossCost   sim.Duration
	CrossJitter sim.Duration

	// HazardScale scales the outlier rate (sandbox and VM scenarios are
	// noisier than local).
	HazardScale float64

	// quant points at the profile's precomputed full-cost timing tables,
	// built by initSigma on the calibrated construction paths. Both the
	// costs and the jitter sigmas are static after construction, so the
	// hot stochastic calls (Cost, SleepExtra, Cross) reduce to one jitter
	// substream index plus one load of an already-clamped total — no
	// Gaussian sampling, no float pipeline, no per-call add/clamp. The
	// tables are shared immutably between the copies a Profile value
	// spawns (inlining them would put ~50KB in every copy); hand-built
	// test profiles leave quant nil and take the compute-on-the-fly
	// fallback.
	quant *quantJitter
}

// quantJitter holds a profile's quantized timing tables. Since PR 9 they
// are full-cost, not sigma-only: entry cost[op][i] is the already-clamped
// total OpCost[op] + sigma_op × QuantNorm(i), sleep[i] the clamped
// overshoot max(0, mean + sigma × QuantNorm(i)) and cross[i] the clamped
// crossing total — so a trial's stochastic draws vectorize to one jitter
// substream index plus one table load each, with no per-call add or
// clamp. The arithmetic baking the tables is the exact int64 expression
// the fallback path evaluates per call, so outputs are byte-identical.
type quantJitter struct {
	cost  [numOps][256]sim.Duration
	sleep [256]sim.Duration
	cross [256]sim.Duration
}

// sigmaFor returns op's jitter sigma: base·OpJitterFrac, floored at
// OpJitterFloor.
func (p *Profile) sigmaFor(op Op) float64 {
	sigma := float64(p.OpCost[op]) * p.OpJitterFrac
	if s := float64(p.OpJitterFloor); sigma < s {
		sigma = s
	}
	return sigma
}

// initSigma builds the quantized timing tables from the current cost and
// jitter parameters. Must be re-run after mutating OpCost, OpJitterFrac,
// OpJitterFloor, SleepOvershootMean/Sigma, CrossCost or CrossJitter. It
// always allocates a fresh table so profile copies sharing the old one
// are unaffected; the calibrated and noiseless builders run it once per
// profile slot, on the slot's first request and strictly after the last
// parameter mutation (see calib.go).
func (p *Profile) initSigma() {
	q := new(quantJitter)
	for op := Op(0); op < numOps; op++ {
		sigma := p.sigmaFor(op)
		base := p.OpCost[op]
		for i := 0; i < 256; i++ {
			d := base + sim.Duration(sigma*sim.QuantNorm(uint8(i)))
			if d < 0 {
				d = 0
			}
			q.cost[op][i] = d
		}
	}
	for i := 0; i < 256; i++ {
		over := p.SleepOvershootMean + sim.Duration(float64(p.SleepOvershootSigma)*sim.QuantNorm(uint8(i)))
		if over < 0 {
			over = 0
		}
		q.sleep[i] = over
		cross := p.CrossCost + sim.Duration(float64(p.CrossJitter)*sim.QuantNorm(uint8(i)))
		if cross < 0 {
			cross = 0
		}
		q.cross[i] = cross
	}
	p.quant = q
}

// Cost returns the jittered cost of op: with quantized tables one index
// draw and one load of the precomputed clamped total.
//
//mes:allocfree
func (p *Profile) Cost(r *sim.RNG, op Op) sim.Duration {
	if q := p.quant; q != nil {
		return q.cost[op][r.JitterIndex()]
	}
	d := p.OpCost[op] + sim.Duration(p.sigmaFor(op)*r.NormFloat64())
	if d < 0 {
		d = 0
	}
	return d
}

// SleepExtra returns the extra latency a sleep of requested length pays:
// rounding up to the floor plus stochastic overshoot.
//
//mes:allocfree
func (p *Profile) SleepExtra(r *sim.RNG, requested sim.Duration) sim.Duration {
	extra := sim.Duration(0)
	if requested < p.SleepFloor {
		extra = p.SleepFloor - requested
	}
	if q := p.quant; q != nil {
		// The table entry is the already-clamped max(0, mean + deviate).
		return extra + q.sleep[r.JitterIndex()]
	}
	over := p.SleepOvershootMean + sim.Duration(float64(p.SleepOvershootSigma)*r.NormFloat64())
	if over > 0 {
		extra += over
	}
	return extra
}

// Hazard returns outlier delay accumulated over an exposure of length d in
// a constraint state. Zero in the common case.
//
//mes:allocfree
func (p *Profile) Hazard(r *sim.RNG, d sim.Duration) sim.Duration {
	return p.HazardCapped(r, d, 0)
}

// HazardCapped is Hazard with the total clamped to cap (0 = uncapped).
// The cooperation channels cap at just under one bit period: longer
// observation delays correspond to rounds the protocol discards via the
// sync-sequence check (paper §V.B), not to surviving bit errors.
func (p *Profile) HazardCapped(r *sim.RNG, d, cap sim.Duration) sim.Duration {
	if d <= 0 || p.HazardRatePerSec <= 0 {
		return 0
	}
	mean := p.HazardRatePerSec * p.HazardScale * d.Seconds()
	n := r.Poisson(mean)
	var total sim.Duration
	for i := 0; i < n; i++ {
		total += sim.Micro(r.LogNormal(p.HazardMagMuLogUs, p.HazardMagSigmaLog))
	}
	if cap > 0 && total > cap {
		total = cap
	}
	return total
}

// AttemptDelay returns the lateness of one contended acquisition attempt,
// or 0 in the common punctual case.
func (p *Profile) AttemptDelay(r *sim.RNG) sim.Duration {
	if !r.Bernoulli(p.AttemptProb * p.HazardScale) {
		return 0
	}
	return sim.Micro(r.LogNormal(p.AttemptMagMuLogUs, p.AttemptMagSigmaLog))
}

// Corrupt reports whether a measurement is corrupted wholesale.
func (p *Profile) Corrupt(r *sim.RNG) bool {
	return r.Bernoulli(p.CorruptProb * p.HazardScale)
}

// Miss reports whether a contended acquisition with the given expected hold
// misses the blocking window entirely. The probability saturates: even
// pathological holds cannot push it past 30%.
func (p *Profile) Miss(r *sim.RNG, hold sim.Duration) bool {
	prob := p.MissBase
	if hold > p.MissKnee {
		prob += p.MissSlopePerUs * (hold - p.MissKnee).Micros()
	}
	prob *= p.HazardScale
	if prob > 0.30 {
		prob = 0.30
	}
	return r.Bernoulli(prob)
}

// Cross returns the penalty for one cross-boundary signaling op. The
// CrossCost == 0 early return consumes no jitter index — local scenarios
// must not burn substream state they never used, or the draw sequence
// (and with it every golden) would shift.
//
//mes:allocfree
func (p *Profile) Cross(r *sim.RNG) sim.Duration {
	if p.CrossCost == 0 {
		return 0
	}
	if q := p.quant; q != nil {
		return q.cross[r.JitterIndex()]
	}
	d := p.CrossCost + sim.Duration(float64(p.CrossJitter)*r.NormFloat64())
	if d < 0 {
		d = 0
	}
	return d
}

// Hooks adapts the profile to the simulation kernel's timing seam.
func (p *Profile) Hooks() sim.Hooks { return hooksAdapter{p} }

type hooksAdapter struct{ p *Profile }

func (h hooksAdapter) SleepLatency(r *sim.RNG, requested sim.Duration) sim.Duration {
	return h.p.SleepExtra(r, requested)
}

// ExecJitter's sigma depends on the per-call cost, so there is no static
// product table; with quantized jitter available it still replaces the
// Gaussian sample with a substream index into the shared deviate levels.
//
//mes:allocfree
func (h hooksAdapter) ExecJitter(r *sim.RNG, cost sim.Duration) sim.Duration {
	sigma := float64(cost) * h.p.OpJitterFrac
	if s := float64(h.p.OpJitterFloor); sigma < s {
		sigma = s
	}
	var d sim.Duration
	if h.p.quant != nil {
		d = sim.Duration(sigma * r.JitterNorm())
	} else {
		d = sim.Duration(sigma * r.NormFloat64())
	}
	if d < 0 {
		return 0
	}
	return d
}

func (h hooksAdapter) ConstraintHazard(r *sim.RNG, d sim.Duration) sim.Duration {
	return h.p.Hazard(r, d)
}
