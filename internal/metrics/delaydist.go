package metrics

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
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
// record per-packet series this way, or as a Series, never as JSON
// arrays of numbers — those dominated both the store's size and the
// time to read it back.
//
// A record is read in two passes over its varints, each a word at a
// time (see packed.go). The counting pass establishes, before any
// sample memory is given, that the tokens encode exactly the count the
// record claims: one sample per varint terminator, corrected for every
// zero gap by the run after it, each run canonical, non-zero and within
// maxRecordSamples. So a hostile count or run allocates nothing, and a
// record holds at most maxRecordSamples samples. The fill pass then
// decodes the tokens into that memory and checks everything else: each
// varint canonical and inside the record, no run straight after a run
// or past the count, no gap past the largest duration, and no byte
// left over. Either pass's error leaves the target unchanged.
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
// Each part is sorted already, so it merges them rather than sorting
// their concatenation. The samples equal to the smallest of all go to
// the front at once: in a pooled web distribution those are its zero
// delays, 34–64 % of the samples of each pool Figures 21 and 23 print.
// The rest merge in rounds of two-way merges, each round halving the
// number of non-empty parts, ceil(log2 k) passes over the samples for
// k parts. The rounds alternate between the result and a pooled scratch
// buffer, so that the last one writes the result.
func MergeDelayDists(parts ...DelayDist) DelayDist {
	low, n := time.Duration(math.MaxInt64), 0
	for _, p := range parts {
		if len(p.sorted) > 0 {
			low = min(low, p.sorted[0])
			n += len(p.sorted)
		}
	}
	out := make([]time.Duration, n)
	runs := make([][]time.Duration, 0, len(parts))
	lead := 0
	for _, p := range parts {
		r := p.sorted
		for len(r) > 0 && r[0] == low {
			out[lead], r = low, r[1:]
			lead++
		}
		if len(r) > 0 {
			runs = append(runs, r)
		}
	}
	if len(runs) == 1 {
		copy(out[lead:], runs[0])
	}
	if len(runs) <= 1 {
		return DelayDist{sorted: out}
	}
	scratch := GetDurations()
	if cap(scratch) < n {
		scratch = make([]time.Duration, n)
	}
	defer PutDurations(scratch)
	bufs := [2][]time.Duration{out[lead:], scratch[:n-lead]}
	for left := bits.Len(uint(len(runs)-1)) - 1; left >= 0; left-- { // rounds after this one
		dst, merged, at := bufs[left&1], runs[:0], 0
		for i := 0; i < len(runs); i += 2 {
			m := len(runs[i])
			if i+1 < len(runs) {
				m += len(runs[i+1])
				merge2(dst[at:at+m], runs[i], runs[i+1])
			} else {
				copy(dst[at:], runs[i])
			}
			merged = append(merged, dst[at:at+m])
			at += m
		}
		runs = merged
	}
	return DelayDist{sorted: out}
}

// merge2 merges the sorted a and b into dst, which holds exactly both.
// Which side holds the next sample is as good as random in pooled delay
// samples, so each step picks it with a conditional move, not a branch.
func merge2(dst, a, b []time.Duration) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y, fromB := a[i], b[j], 0
		if y < x {
			x, fromB = y, 1
		}
		dst[i+j] = x
		i += 1 - fromB
		j += fromB
	}
	copy(dst[i+j:], a[i:])
	copy(dst[i+j:], b[j:])
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
	return packRecord(packed), nil
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
	count, tokens, err := unpackRecord(b, "delay distribution")
	if err != nil {
		return err
	}
	if count == 0 && len(tokens) == 0 {
		d.sorted = []time.Duration{}
		return nil
	}
	first, w := varint(tokens)
	if w <= 0 {
		return errors.New("metrics: delay distribution record is cut off at its first sample")
	}
	if n, err := countSamples(tokens, w); err != nil {
		return err
	} else if n != count {
		return fmt.Errorf("metrics: delay distribution record claims %d samples but encodes %d", count, n)
	}
	sorted := make([]time.Duration, count)
	sorted[0] = time.Duration(first)
	if err := fillSamples(tokens, w, sorted); err != nil {
		return err
	}
	d.sorted = sorted
	return nil
}

// countSamples is the counting pass: how many samples the tokens encode
// when those from offset p on are gaps and runs after the first sample.
// Every varint ends in one terminator byte, so the tokens from p on are
// their terminators, counted a word at a time, and each is one sample —
// but for a zero gap and the run length after it, two tokens that stand
// for the run's samples. A zero gap is the single byte 0, the only token
// that is a zero byte: a canonical varint of more bytes never ends in
// one. For each, the run length is decoded and checked to be canonical,
// non-zero and within a record's bound, and the count corrected. Nothing
// else is checked here.
func countSamples(tokens []byte, p int) (uint64, error) {
	n := uint64(1) // the first sample
	for p < len(tokens) {
		word := wordAt(tokens, p)
		n += uint64(bits.OnesCount64(^word & stopBits))
		// The zero bytes: a byte's low seven bits plus 0x7f carry into
		// its high bit unless they are all clear.
		for zeros := ^((word&^stopBits + ^uint64(stopBits)) | word) & stopBits; zeros != 0; zeros &= zeros - 1 {
			at := p + bits.TrailingZeros64(zeros)>>3
			run, w := uvarint(tokens[at+1:])
			if w <= 0 || run == 0 || run > maxRecordSamples {
				return 0, fmt.Errorf("metrics: delay distribution record has a bad run at byte %d", at)
			}
			n += run - 2
		}
		p += 8
	}
	return n, nil
}

// fillSamples is the filling pass: it decodes the tokens from offset p
// on into out[1:], the gaps and runs after the first sample, which the
// caller has put in out[0]. out has as many samples as the counting
// pass found, but the tokens are checked here all the same: each must
// be a canonical varint within the tokens, a run must not follow a run
// or pass the end of out, a gap must not pass the largest duration, and
// no byte may be left over. fillGaps takes the common tokens; the loop
// here takes each one it stops at.
func fillSamples(tokens []byte, p int, out []time.Duration) error {
	cur := uint64(out[0])
	afterRun := false
	for k := 1; k < len(out); {
		if q, j, c := fillGaps(tokens, p, out, k, cur); j > k {
			p, k, cur, afterRun = q, j, c, false
			continue
		}
		gap, n := uvarint(tokens[p:])
		if n <= 0 {
			return fmt.Errorf("metrics: delay distribution record is cut off or not canonical at sample %d of %d", k, len(out))
		}
		p += n
		if gap != 0 {
			if gap > math.MaxInt64-cur {
				return fmt.Errorf("metrics: delay distribution record overflows at sample %d", k)
			}
			cur += gap
			out[k] = time.Duration(cur)
			k++
			afterRun = false
			continue
		}
		run, n := uvarint(tokens[p:])
		if n <= 0 || afterRun || run == 0 || run > uint64(len(out)-k) {
			return fmt.Errorf("metrics: delay distribution record has a bad run at sample %d of %d", k, len(out))
		}
		p += n
		fill := out[k : k+int(run)]
		for i := range fill {
			fill[i] = time.Duration(cur)
		}
		k += int(run)
		afterRun = true
	}
	if p != len(tokens) {
		return fmt.Errorf("metrics: delay distribution record has %d bytes after its %d samples", len(tokens)-p, len(out))
	}
	return nil
}

// fillGaps decodes gaps from offset p into out[k:] for as long as they
// are the common token: a varint of at most eight bytes that tokenOK
// accepts, not zero, and keeping the sample within the largest
// duration. It returns where it stopped: at the end of out, or at the
// first token that is anything else, which it leaves to fillSamples.
// The loop calls nothing, so its state stays in registers.
func fillGaps(tokens []byte, p int, out []time.Duration, k int, cur uint64) (int, int, uint64) {
	for ; k < len(out); k++ {
		gap, n := peekUvarint(tokens, p)
		// gap-1 wraps for a zero gap, so one comparison refuses it and
		// an overflowing one.
		if !tokenOK(tokens, p, gap, n) || gap-1 >= math.MaxInt64-cur {
			break
		}
		p += n
		cur += gap
		out[k] = time.Duration(cur)
	}
	return p, k, cur
}
