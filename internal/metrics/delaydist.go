package metrics

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"
)

// DelayDist is a recorded distribution of per-packet delays (the
// out-of-order delays behind the paper's Figures 13, 14, 21 and 23):
// the samples in ascending order, as the integer nanoseconds the
// simulator measured. It is sorted once, when a driver builds it from a
// finished cell, so every later reader — CDF, a merge across runs, a
// cached record — starts from ordered data.
//
// Its record form (MarshalJSON) is a JSON string holding the base64 of
// a sample count followed by the first sample and then the gaps between
// neighbours, all as varints: exact, and 2–3 bytes per sample where the
// samples as JSON numbers take ten or more. Experiment drivers must
// record per-packet series this way, never as JSON arrays of numbers —
// those dominated both the store's size and the time to read it back.
type DelayDist struct {
	sorted []time.Duration
}

// NewDelayDist copies and sorts the samples.
func NewDelayDist(ds []time.Duration) DelayDist {
	s := slices.Clone(ds)
	sortDurations(s)
	return DelayDist{sorted: s}
}

// sortDurations sorts a cell's worth of delay samples — 10^5 mostly
// distinct nanosecond counts, where a comparison sort was a sixth of a
// whole streaming cell's cost. Non-negative samples (delays are) go
// through an LSD radix sort on 11-bit digits, with only as many passes
// as the largest sample has digits: four below 2^44 ns, five hours.
// Its scratch half comes from the sample-buffer pool, which a sweep
// worker keeps at cell size. Anything else, and short inputs, take
// slices.Sort.
func sortDurations(s []time.Duration) {
	const digit = 11
	if len(s) < 1<<digit {
		slices.Sort(s)
		return
	}
	var max time.Duration
	for _, v := range s {
		if v < 0 {
			slices.Sort(s)
			return
		}
		if v > max {
			max = v
		}
	}
	scratch := append(GetDurations(), s...)
	defer PutDurations(scratch)
	from, to := s, scratch
	for shift := 0; max>>shift > 0; shift += digit {
		var next [1 << digit]int // next[d]: where the next sample with digit d goes
		for _, v := range from {
			next[(v>>shift)&(1<<digit-1)]++
		}
		at := 0
		for d, n := range next {
			next[d], at = at, at+n
		}
		for _, v := range from {
			d := (v >> shift) & (1<<digit - 1)
			to[next[d]] = v
			next[d]++
		}
		from, to = to, from
	}
	if &from[0] != &s[0] {
		copy(s, from)
	}
}

// MergeDelayDists pools the samples of several distributions into one.
func MergeDelayDists(parts ...DelayDist) DelayDist {
	n := 0
	for _, p := range parts {
		n += len(p.sorted)
	}
	s := make([]time.Duration, 0, n)
	for _, p := range parts {
		s = append(s, p.sorted...)
	}
	sortDurations(s)
	return DelayDist{sorted: s}
}

// CDF returns the distribution in seconds. The samples are already in
// order and seconds are monotone in nanoseconds, so nothing is sorted.
func (d DelayDist) CDF() *CDF {
	return &CDF{sorted: DurationsToSeconds(d.sorted)}
}

// RecordFormat names the record form to the results store, which folds
// the name into the payload fingerprint: DelayDist marshals itself, so
// its Go structure says nothing about the bytes on disk. Change the name
// whenever the bytes MarshalJSON writes change meaning, so that records
// in the old form stop matching.
func (DelayDist) RecordFormat() string { return "delaydist/varint-gaps-ns/1" }

// MarshalJSON writes the record form described on the type.
func (d DelayDist) MarshalJSON() ([]byte, error) {
	packed := make([]byte, 0, binary.MaxVarintLen64+3*len(d.sorted))
	packed = binary.AppendUvarint(packed, uint64(len(d.sorted)))
	for i, v := range d.sorted {
		if i == 0 {
			packed = binary.AppendVarint(packed, int64(v))
		} else {
			packed = binary.AppendUvarint(packed, uint64(v)-uint64(d.sorted[i-1]))
		}
	}
	out := make([]byte, 2+base64.StdEncoding.EncodedLen(len(packed)))
	out[0], out[len(out)-1] = '"', '"'
	base64.StdEncoding.Encode(out[1:], packed)
	return out, nil
}

// UnmarshalJSON reads the record form back. Anything but a well-formed
// record — bad base64, a cut-off varint, a count that disagrees with
// the samples present, a gap that would pass the largest duration — is
// an error and leaves d unchanged.
func (d *DelayDist) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		return nil
	}
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return errors.New("metrics: delay distribution record is not a JSON string")
	}
	packed := make([]byte, base64.StdEncoding.DecodedLen(len(b)-2))
	n, err := base64.StdEncoding.Decode(packed, b[1:len(b)-1])
	if err != nil {
		return fmt.Errorf("metrics: delay distribution record: %w", err)
	}
	packed = packed[:n]
	count, w := binary.Uvarint(packed)
	if w <= 0 {
		return errors.New("metrics: delay distribution record has no sample count")
	}
	packed = packed[w:]
	// Every sample takes at least one byte, which bounds the allocation
	// a hostile count can ask for.
	if count > uint64(len(packed)) {
		return fmt.Errorf("metrics: delay distribution record claims %d samples in %d bytes", count, len(packed))
	}
	sorted := make([]time.Duration, count)
	var cur int64
	for i := range sorted {
		if i == 0 {
			cur, w = binary.Varint(packed)
		} else {
			var gap uint64
			gap, w = binary.Uvarint(packed)
			if gap > uint64(math.MaxInt64)-uint64(cur) {
				return fmt.Errorf("metrics: delay distribution record overflows at sample %d", i)
			}
			cur = int64(uint64(cur) + gap)
		}
		if w <= 0 {
			return fmt.Errorf("metrics: delay distribution record is cut off at sample %d of %d", i, count)
		}
		packed = packed[w:]
		sorted[i] = time.Duration(cur)
	}
	if len(packed) != 0 {
		return fmt.Errorf("metrics: delay distribution record has %d bytes after its %d samples", len(packed), count)
	}
	d.sorted = sorted
	return nil
}
