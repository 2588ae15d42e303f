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
// finished cell, so every later reader — a statistic, a merge across
// runs, a cached record — starts from ordered data. Its statistics
// (at, CCDFAt, Quantile, Mean) read those integers and convert to
// seconds only the samples they probe; they equal, bit for bit, what a
// CDF over the samples in seconds gives.
//
// Its record form (MarshalJSON) is a JSON string holding the base64 of
// varints: the sample count, the first sample, then the gap from each
// sample to the next — except that a run of equal neighbours is one
// zero gap followed by the run's length. That is exact, 2–3 bytes per
// distinct sample and 2–4 bytes per run of equal ones, where the
// samples as JSON numbers take ten or more. Experiment drivers must
// record per-packet series this way, never as JSON arrays of numbers —
// those dominated both the store's size and the time to read it back.
//
// A record is read in two passes: the first checks every token and
// counts the samples they encode, and only a record whose count matches
// is given memory, so a hostile count allocates nothing. A record holds
// at most maxRecordSamples samples, so neither can a hostile run.
type DelayDist struct {
	sorted []time.Duration
}

// maxRecordSamples bounds a record: 2^22 samples, 32 MiB decoded,
// twenty-five times the largest cell's (164k at full scale).
const maxRecordSamples = 1 << 22

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

// at returns P(X <= x), x in seconds.
func (d DelayDist) at(x float64) float64 { return atOf(d.sorted, time.Duration.Seconds, x) }

// CCDFAt returns P(X > x), x in seconds.
func (d DelayDist) CCDFAt(x float64) float64 { return 1 - d.at(x) }

// Quantile returns the p-quantile in seconds for p in [0, 1].
func (d DelayDist) Quantile(p float64) float64 {
	return quantileOf(d.sorted, time.Duration.Seconds, p)
}

// Mean returns the sample mean in seconds.
func (d DelayDist) Mean() float64 { return meanOf(d.sorted, time.Duration.Seconds) }

// RecordFormat names the record form to the cell families that keep it,
// which fold the name into their record key: DelayDist marshals itself,
// so its Go structure says nothing about the bytes on disk. Change the
// name whenever the bytes MarshalJSON writes change meaning, so that
// every family holding a DelayDist is re-keyed and its records in the
// old form are computed once more.
func (DelayDist) RecordFormat() string { return "delaydist/varint-gaps-runs-ns/2" }

// recordEncoding is the base64 of the record form. Strict, plus the
// length check in UnmarshalJSON, makes the encoding of a byte string
// unique: no stray padding bits, no skipped newlines.
var recordEncoding = base64.StdEncoding.Strict()

// MarshalJSON writes the record form described on the type.
func (d DelayDist) MarshalJSON() ([]byte, error) {
	s := d.sorted
	if len(s) > maxRecordSamples {
		return nil, fmt.Errorf("metrics: a delay distribution record holds at most %d samples, not %d", maxRecordSamples, len(s))
	}
	packed := make([]byte, 0, binary.MaxVarintLen64+3*len(s))
	packed = binary.AppendUvarint(packed, uint64(len(s)))
	for i := 0; i < len(s); {
		if i == 0 {
			packed = binary.AppendVarint(packed, int64(s[0]))
		} else {
			packed = binary.AppendUvarint(packed, uint64(s[i])-uint64(s[i-1]))
		}
		j := i + 1
		for j < len(s) && s[j] == s[i] {
			j++
		}
		if run := j - i - 1; run > 0 {
			packed = binary.AppendUvarint(packed, 0)
			packed = binary.AppendUvarint(packed, uint64(run))
		}
		i = j
	}
	out := make([]byte, 2+recordEncoding.EncodedLen(len(packed)))
	out[0], out[len(out)-1] = '"', '"'
	recordEncoding.Encode(out[1:], packed)
	return out, nil
}

// UnmarshalJSON reads the record form back. It accepts exactly the
// bytes MarshalJSON writes: anything else — bad or non-canonical
// base64, a cut-off or over-long varint, a count that disagrees with
// the samples present, a gap that would pass the largest duration, a
// run of length zero, past the count or straight after another run —
// is an error and leaves d unchanged.
func (d *DelayDist) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		return nil
	}
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return errors.New("metrics: delay distribution record is not a JSON string")
	}
	text := b[1 : len(b)-1]
	packed := make([]byte, recordEncoding.DecodedLen(len(text)))
	n, err := recordEncoding.Decode(packed, text)
	if err != nil {
		return fmt.Errorf("metrics: delay distribution record: %w", err)
	}
	if recordEncoding.EncodedLen(n) != len(text) {
		return errors.New("metrics: delay distribution record has characters outside its base64")
	}
	packed = packed[:n]
	count, w := uvarint(packed)
	if w <= 0 {
		return errors.New("metrics: delay distribution record has no canonical sample count")
	}
	packed = packed[w:]
	if count > maxRecordSamples {
		return fmt.Errorf("metrics: delay distribution record claims %d samples, more than the %d a record holds", count, maxRecordSamples)
	}
	if err := unpackSamples(packed, int(count), nil); err != nil {
		return err
	}
	sorted := make([]time.Duration, count)
	_ = unpackSamples(packed, int(count), sorted) // the tokens just checked
	d.sorted = sorted
	return nil
}

// unpackSamples walks the tokens after a record's count, which declares
// count samples. With out nil it only checks them; given the checked
// tokens and a slice of count samples, it fills the slice.
func unpackSamples(packed []byte, count int, out []time.Duration) error {
	var cur int64
	afterRun := false
	for k := 0; k < count; {
		if k == 0 {
			v, w := varint(packed)
			if w <= 0 {
				return errors.New("metrics: delay distribution record is cut off at its first sample")
			}
			packed, cur = packed[w:], v
		} else {
			gap, w := uvarint(packed)
			if w <= 0 {
				return fmt.Errorf("metrics: delay distribution record is cut off at sample %d of %d", k, count)
			}
			packed = packed[w:]
			if gap == 0 {
				if afterRun {
					return fmt.Errorf("metrics: delay distribution record has two runs in a row at sample %d", k)
				}
				run, w := uvarint(packed)
				if w <= 0 || run == 0 || run > uint64(count-k) {
					return fmt.Errorf("metrics: delay distribution record has a bad run at sample %d of %d", k, count)
				}
				packed = packed[w:]
				if out != nil {
					v := time.Duration(cur)
					for i := k; i < k+int(run); i++ {
						out[i] = v
					}
				}
				k += int(run)
				afterRun = true
				continue
			}
			if gap > uint64(math.MaxInt64)-uint64(cur) {
				return fmt.Errorf("metrics: delay distribution record overflows at sample %d", k)
			}
			cur = int64(uint64(cur) + gap)
		}
		if out != nil {
			out[k] = time.Duration(cur)
		}
		k++
		afterRun = false
	}
	if len(packed) != 0 {
		return fmt.Errorf("metrics: delay distribution record has %d bytes after its %d samples", len(packed), count)
	}
	return nil
}

// uvarint is binary.Uvarint restricted to the shortest encoding of each
// value, the only one AppendUvarint writes: a varint whose last byte is
// zero, with more bytes before it, reports w = 0.
func uvarint(b []byte) (v uint64, w int) {
	v, w = binary.Uvarint(b)
	if w > 1 && b[w-1] == 0 {
		return 0, 0
	}
	return v, w
}

// varint is binary.Varint under uvarint's shortest-encoding rule.
func varint(b []byte) (int64, int) {
	u, w := uvarint(b)
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v, w
}
