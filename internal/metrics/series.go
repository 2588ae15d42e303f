package metrics

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Series is a recorded series of float64 samples taken at fixed
// instants — a subflow's congestion window or send-buffer occupancy
// every sampling interval, behind the paper's Figures 3, 11 and 12 —
// kept exactly, bit for bit.
//
// Its record form (MarshalJSON) is DelayDist's envelope, a JSON string
// holding the base64 of varints: the sample count, then per sample the
// XOR of its IEEE 754 bits with the previous sample's (zero before the
// first), byte-reversed. The XOR of a repeated sample is zero, one byte;
// byte reversal puts the low mantissa bytes, all zero in an integer or
// a half, at the top, where a varint drops them. Send-buffer bytes take
// one to four bytes a sample and fractional windows about nine, where
// JSON numbers take about seven and twenty. It is decoded without
// parsing a float: the count is checked against the number of varint
// terminators before any sample memory is given, and each sample is one
// XOR away from the last.
type Series []float64

// RecordFormat names the record form to the cell families that keep it,
// which fold the name into their record key, as DelayDist's does.
func (Series) RecordFormat() string { return "series/varint-xor-reversed-float64/1" }

// MarshalJSON writes the record form described on the type.
func (s Series) MarshalJSON() ([]byte, error) {
	if len(s) > maxRecordSamples {
		return nil, fmt.Errorf("metrics: a series record holds at most %d samples, not %d", maxRecordSamples, len(s))
	}
	packed := make([]byte, 0, binary.MaxVarintLen64*(1+len(s)))
	packed = binary.AppendUvarint(packed, uint64(len(s)))
	var prev uint64
	for _, v := range s {
		b := math.Float64bits(v)
		packed = binary.AppendUvarint(packed, bits.ReverseBytes64(b^prev))
		prev = b
	}
	return packRecord(packed), nil
}

// UnmarshalJSON reads the record form back. It accepts exactly the
// bytes MarshalJSON writes — every varint canonical, one per sample —
// and leaves s unchanged on anything else.
func (s *Series) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		return nil
	}
	count, tokens, err := unpackRecord(b, "series")
	if err != nil {
		return err
	}
	if n := countTokens(tokens); n != count || len(tokens) > 0 && tokens[len(tokens)-1] >= 0x80 {
		return fmt.Errorf("metrics: series record claims %d samples but holds %d whole tokens", count, n)
	}
	out := make(Series, count)
	var prev uint64
	for k, p := 0, 0; k < len(out); k++ {
		x, n := peekUvarint(tokens, p)
		if !tokenOK(tokens, p, x, n) {
			if x, n = uvarint(tokens[p:]); n <= 0 {
				return fmt.Errorf("metrics: series record has an over-long or non-canonical token at sample %d of %d", k, len(out))
			}
		}
		p += n
		prev ^= bits.ReverseBytes64(x)
		out[k] = math.Float64frombits(prev)
	}
	*s = out
	return nil
}

// countTokens counts the varints that end in tokens, a word at a time.
func countTokens(tokens []byte) uint64 {
	n := 0
	for p := 0; p < len(tokens); p += 8 {
		n += bits.OnesCount64(^wordAt(tokens, p) & stopBits)
	}
	return uint64(n)
}
