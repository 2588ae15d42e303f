package metrics

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math/bits"
)

// The packed record forms (DelayDist, Series) share one envelope: a
// JSON string holding the base64 of a sequence of varints, the first of
// them the sample count. Their decoders read the varints a 64-bit word
// at a time. A varint ends at its first byte whose high bit is clear,
// its terminator, so the terminators of eight bytes are one mask,
//
//	stops = ^word & 0x8080808080808080,
//
// whose population count is how many varints end in the word and whose
// lowest set bit is where the first of them ends — the word-wide
// terminator mask of Plaisance, Kurz and Lemire, "Vectorized VByte
// Decoding" (2015). Loading eight bytes past the last token is safe
// because unpackRecord leaves recordSlack zero bytes after the tokens.

// recordSlack is how many zero bytes follow a decoded record's tokens,
// so an eight-byte load at any token start stays inside the buffer.
const recordSlack = 8

// stopBits marks the high bit of every byte of a word.
const stopBits = 0x8080808080808080

// recordEncoding is the base64 of the record forms. Strict, plus the
// length check in unpackRecord, makes the encoding of a byte string
// unique: no stray padding bits, no skipped newlines.
var recordEncoding = base64.StdEncoding.Strict()

// packRecord writes packed as the JSON string of its base64.
func packRecord(packed []byte) []byte {
	out := make([]byte, 2+recordEncoding.EncodedLen(len(packed)))
	out[0], out[len(out)-1] = '"', '"'
	recordEncoding.Encode(out[1:], packed)
	return out
}

// unpackRecord reads a packed record's JSON string back to its bytes,
// the sample count cut off the front: it returns the count and the
// tokens after it, which are followed by recordSlack zero bytes within
// their capacity. what names the record in errors.
func unpackRecord(b []byte, what string) (count uint64, tokens []byte, err error) {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return 0, nil, fmt.Errorf("metrics: %s record is not a JSON string", what)
	}
	text := b[1 : len(b)-1]
	buf := make([]byte, recordEncoding.DecodedLen(len(text))+recordSlack)
	n, err := recordEncoding.Decode(buf, text)
	if err != nil {
		return 0, nil, fmt.Errorf("metrics: %s record: %w", what, err)
	}
	if recordEncoding.EncodedLen(n) != len(text) {
		return 0, nil, fmt.Errorf("metrics: %s record has characters outside its base64", what)
	}
	clear(buf[n:])
	count, w := uvarint(buf[:n])
	if w <= 0 {
		return 0, nil, fmt.Errorf("metrics: %s record has no canonical sample count", what)
	}
	if count > maxRecordSamples {
		return 0, nil, fmt.Errorf("metrics: %s record claims %d samples, more than the %d a record holds", what, count, maxRecordSamples)
	}
	return count, buf[w:n], nil
}

// maxRecordSamples bounds a record: 2^22 samples, 32 MiB decoded,
// twenty-five times the largest cell's (164k at full scale).
const maxRecordSamples = 1 << 22

// wordAt loads the eight bytes from tokens[p], p inside tokens, little
// endian; those past the end of tokens read as 0xff, which neither ends
// a varint nor is zero.
func wordAt(tokens []byte, p int) uint64 {
	word := binary.LittleEndian.Uint64(tokens[p : p+8 : p+8])
	if left := len(tokens) - p; left < 8 {
		word |= ^uint64(0) << (8 * left)
	}
	return word
}

// peekUvarint decodes the varint that starts at tokens[p], p at most
// len(tokens), without a branch on its length: one eight-byte load, the
// terminator mask's lowest bit for the length n, and shifts and masks
// that gather its 7-bit groups. The result stands only when the token
// is short: n is 9 when no byte of the eight ends it. A caller checks
// that with tokenOK, and reads any other token with uvarint, which
// decodes a long one and rejects the rest.
func peekUvarint(tokens []byte, p int) (v uint64, n int) {
	word := binary.LittleEndian.Uint64(tokens[p : p+8 : p+8])
	stops := ^word & stopBits
	return gather7(word & (stops ^ (stops - 1))), bits.TrailingZeros64(stops)>>3 + 1
}

// tokenOK reports whether peekUvarint's v and n at p are a token: at
// most eight bytes, ending inside tokens, and in the shortest form of
// its value: at least 2^(7(n-1)) when n > 1, which the mask &^ 1
// relaxes to 0 for a one-byte token, without a branch on n.
func tokenOK(tokens []byte, p int, v uint64, n int) bool {
	return n <= 8 && p+n <= len(tokens) && v >= 1<<(7*(n-1))&^1
}

// gather7 packs the 7-bit groups of a little-endian varint of up to
// eight bytes (its bytes past the terminator already masked off) into
// the value they encode: byte pairs, then pairs of those, then the two
// halves.
func gather7(x uint64) uint64 {
	x &= 0x7f7f7f7f7f7f7f7f
	x = x&0x007f007f007f007f | x&0x7f007f007f007f00>>1
	x = x&0x00003fff00003fff | x&0x3fff00003fff0000>>2
	return x&0x000000000fffffff | x&0x0fffffff00000000>>4
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
