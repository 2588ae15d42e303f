package metrics

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// seriesShapes draws the sample shapes the series form must survive:
// nothing, send-buffer bytes (integers, long repeats), congestion
// windows (fractions with full mantissas, halvings), and the values at
// the edges of float64, NaN payloads and negative zero included.
func seriesShapes(rng *rand.Rand) []Series {
	n := rng.Intn(400)
	bytes := make(Series, n)
	cwnd := make(Series, n)
	for i := 0; i < n; i++ {
		if i == 0 || rng.Intn(4) == 0 {
			bytes[i] = float64(1400 * rng.Intn(60))
		} else {
			bytes[i] = bytes[i-1]
		}
		switch {
		case i == 0:
			cwnd[i] = 10
		case rng.Intn(20) == 0:
			cwnd[i] = cwnd[i-1] / 2
		default:
			cwnd[i] = cwnd[i-1] + 1/cwnd[i-1]
		}
	}
	edges := Series{0, math.Copysign(0, -1), 1, -1, math.SmallestNonzeroFloat64, math.MaxFloat64,
		-math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff0000000000001),
		math.Float64frombits(^uint64(0)), 0.1, 1e300}
	return []Series{nil, {}, bytes, cwnd, edges}
}

// sameBits reports whether two series hold the same samples, bit for
// bit (so NaNs and signed zeros compare).
func sameBits(a, b Series) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSeriesRecordRoundTripIsExact sends series through their record
// form inside a record struct, as a "sampled" cell keeps them, and
// requires every sample back bit for bit.
func TestSeriesRecordRoundTripIsExact(t *testing.T) {
	type record struct {
		Subflows []string
		Cwnd     []Series
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		shapes := seriesShapes(rng)
		raw, err := json.Marshal(record{Subflows: []string{"wifi"}, Cwnd: shapes})
		if err != nil {
			t.Fatal(err)
		}
		var back record
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("decoding %q: %v", raw, err)
		}
		if len(back.Cwnd) != len(shapes) {
			t.Fatalf("decoded %d series, want %d", len(back.Cwnd), len(shapes))
		}
		for i, s := range shapes {
			if !sameBits(back.Cwnd[i], s) {
				t.Fatalf("series %d: decoded %v, want %v", i, back.Cwnd[i], s)
			}
		}
	}
}

// packSeries builds a series record by hand: the count, then raw bytes.
func packSeries(count uint64, body ...byte) []byte {
	packed := append(binary.AppendUvarint(nil, count), body...)
	return []byte(`"` + base64.StdEncoding.EncodeToString(packed) + `"`)
}

func TestSeriesRejectsHostileRecords(t *testing.T) {
	tenBytes := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01} // 2^64-1
	cases := map[string][]byte{
		"not a string":       []byte(`[1,2,3]`),
		"bad base64":         []byte(`"!!not base64!!"`),
		"stray padding bits": []byte(`"AQp="`), // "AQo=" is count 1, one token
		"newline in base64":  []byte("\"AQ\no=\""),
		"empty string":       []byte(`""`),
		"cut-off count":      []byte(`"` + base64.StdEncoding.EncodeToString([]byte{0x80}) + `"`),
		"over-long count":    []byte(`"` + base64.StdEncoding.EncodeToString([]byte{0x81, 0x00, 0x05}) + `"`),
		"count above tokens": packSeries(3, 0x05, 0x06),
		"count below tokens": packSeries(1, 0x05, 0x06),
		"count beyond bytes": packSeries(1<<60, 0x05),
		"cut-off last token": packSeries(2, 0x05, 0x86),
		"over-long token":    packSeries(2, 0x05, 0x86, 0x00),
		"eight-byte padding": packSeries(1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00),
		"token too long":     packSeries(1, append([]byte{0xff}, tenBytes...)...),
		"token overflows":    packSeries(1, append(tenBytes[:9:9], 0x02)...),
		"past the size":      packSeries(maxRecordSamples+1, 0x00),
	}
	for name, raw := range cases {
		s := Series{7}
		if err := s.UnmarshalJSON(raw); err == nil {
			t.Errorf("%s: decoded to %v, want an error", name, s)
		}
		if len(s) != 1 || s[0] != 7 {
			t.Errorf("%s: a rejected record changed the target to %v", name, s)
		}
	}

	// The largest token decodes: a ten-byte varint is a valid sample.
	var s Series
	if err := s.UnmarshalJSON(packSeries(1, tenBytes...)); err != nil || len(s) != 1 || math.Float64bits(s[0]) != ^uint64(0) {
		t.Fatalf("a ten-byte token decoded to %v, %v", s, err)
	}

	// A count far past the tokens present is refused before any sample
	// memory is asked for: 2^22 samples would be 32 MiB.
	huge := packSeries(maxRecordSamples, 0x00)
	const tries = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < tries; i++ {
		var s Series
		if s.UnmarshalJSON(huge) == nil {
			t.Fatal("a record claiming 2^22 samples in one decoded")
		}
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / tries; perCall > 1024 {
		t.Fatalf("rejecting a %d-byte record allocated %d bytes", len(huge), perCall)
	}
}

// FuzzSeriesUnmarshal holds the decoder to the encoder's form: an
// accepted record re-encodes to exactly its own bytes.
func FuzzSeriesUnmarshal(f *testing.F) {
	for _, s := range seriesShapes(rand.New(rand.NewSource(2))) {
		raw, _ := s.MarshalJSON()
		f.Add(raw)
	}
	f.Add(packSeries(1<<60, 0x0a))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var s Series
		if s.UnmarshalJSON(raw) != nil || string(raw) == "null" {
			return
		}
		again, err := s.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(raw) {
			t.Fatalf("accepted record %q re-encodes as %q", raw, again)
		}
	})
}
