package core

import (
	"fmt"
	"slices"

	"mes/internal/sim"
)

// Decoder turns Spy-side latency measurements into symbols. It is
// calibrated from the synchronization preamble: the Spy knows the
// pre-negotiated sync sequence (paper §V.B), so the latencies observed for
// its known 0s and max-symbols yield the level spacing and thresholds.
// Calibrating from the preamble — rather than from nominal parameters —
// makes the decoder robust to every constant of the substrate (op costs,
// wake latencies, crossing penalties).
type Decoder struct {
	m       int     // alphabet size
	level0  float64 // µs, expected latency of symbol 0
	spacing float64 // µs between adjacent symbol levels
}

// CalibrateDecoder fits a Decoder from the preamble's known symbols and
// their measured latencies. The preamble must exercise both symbol 0 and
// symbol m-1.
func CalibrateDecoder(m int, syncSyms []int, lat []sim.Duration) (*Decoder, error) {
	d := &Decoder{}
	if err := d.calibrate(m, syncSyms, lat); err != nil {
		return nil, err
	}
	return d, nil
}

// calibrate fits the decoder in place — the allocation-free form session
// trials reuse across runs.
func (d *Decoder) calibrate(m int, syncSyms []int, lat []sim.Duration) error {
	if m < 2 {
		return fmt.Errorf("%w: alphabet size %d", ErrCalibration, m)
	}
	if len(syncSyms) > len(lat) {
		return fmt.Errorf("%w: %d sync symbols but %d measurements", ErrCalibration, len(syncSyms), len(lat))
	}
	// Typical preambles are 8 symbols, so the level samples fit in
	// stack-friendly fixed buffers; longer preambles spill to the heap via
	// append as usual.
	var losBuf, hisBuf [16]float64
	los, his := losBuf[:0], hisBuf[:0]
	for i, s := range syncSyms {
		v := lat[i].Micros()
		switch s {
		case 0:
			los = append(los, v)
		case m - 1:
			his = append(his, v)
		}
	}
	if len(los) == 0 || len(his) == 0 {
		return fmt.Errorf("%w: preamble must contain symbols 0 and %d", ErrCalibration, m-1)
	}
	// Medians, not means: a single outlier measurement in the short
	// preamble must not skew the thresholds for the whole round.
	lo := median(los)
	hi := median(his)
	if hi-lo < 2 { // µs: below measurement noise, not a usable channel
		return fmt.Errorf("%w: levels not separated (lo=%.2fµs hi=%.2fµs); channel carries no signal", ErrCalibration, lo, hi)
	}
	d.m, d.level0, d.spacing = m, lo, (hi-lo)/float64(m-1)
	return nil
}

// median sorts v in place and returns its median.
func median(v []float64) float64 {
	slices.Sort(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// M returns the alphabet size.
func (d *Decoder) M() int { return d.m }

// Level returns the expected latency (µs) of symbol s.
func (d *Decoder) Level(s int) float64 { return d.level0 + float64(s)*d.spacing }

// Threshold returns the decision boundary between symbols s and s+1, in µs.
func (d *Decoder) Threshold(s int) float64 {
	return d.level0 + (float64(s)+0.5)*d.spacing
}

// Decode maps a measured latency to the nearest symbol level, clamped to
// the alphabet.
func (d *Decoder) Decode(lat sim.Duration) int {
	v := lat.Micros()
	s := int((v-d.level0)/d.spacing + 0.5)
	if s < 0 {
		return 0
	}
	if s >= d.m {
		return d.m - 1
	}
	return s
}

// DecodeAll maps a latency series to symbols.
func (d *Decoder) DecodeAll(lat []sim.Duration) []int {
	return d.AppendDecodeAll(make([]int, 0, len(lat)), lat)
}

// AppendDecodeAll is DecodeAll appending into dst: allocation-free when
// dst has capacity for len(lat) more symbols.
func (d *Decoder) AppendDecodeAll(dst []int, lat []sim.Duration) []int {
	for _, l := range lat {
		dst = append(dst, d.Decode(l))
	}
	return dst
}
