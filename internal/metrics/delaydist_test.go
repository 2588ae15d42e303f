package metrics

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// delayMultisets draws the sample shapes the record form must survive:
// nothing, all zero, a few values repeated many times, values crowding
// the largest duration, and an unstructured mix with negatives.
func delayMultisets(rng *rand.Rand) [][]time.Duration {
	n := rng.Intn(400)
	zeros := make([]time.Duration, n)
	dups := make([]time.Duration, n)
	top := make([]time.Duration, n)
	mixed := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		dups[i] = time.Duration(rng.Intn(3)) * 1500 * time.Microsecond
		top[i] = math.MaxInt64 - time.Duration(rng.Intn(1000))
		mixed[i] = time.Duration(rng.Int63n(int64(3*time.Second))) - time.Duration(rng.Intn(2))*time.Second
	}
	edges := []time.Duration{math.MinInt64, -1, 0, 1, math.MaxInt64}
	return [][]time.Duration{nil, zeros, dups, top, mixed, edges}
}

func TestDelayDistRecordRoundTripIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		for _, ds := range delayMultisets(rng) {
			// The distribution travels inside a record struct, as it does
			// in PageOutcome.
			type record struct {
				N   int
				OOO DelayDist
			}
			raw, err := json.Marshal(record{N: len(ds), OOO: NewDelayDist(ds)})
			if err != nil {
				t.Fatal(err)
			}
			var back record
			if err := json.Unmarshal(raw, &back); err != nil {
				t.Fatalf("decoding %d samples: %v", len(ds), err)
			}
			want := DurationsToSeconds(ds)
			sort.Float64s(want)
			got := back.OOO.CDF()
			if back.N != len(ds) || len(got.sorted) != len(want) {
				t.Fatalf("decoded %d samples, want %d", len(got.sorted), len(want))
			}
			for i := range want {
				if math.Float64bits(got.sorted[i]) != math.Float64bits(want[i]) {
					t.Fatalf("sample %d of %d = %v, want %v", i, len(want), got.sorted[i], want[i])
				}
			}
			ref := NewCDF(DurationsToSeconds(ds))
			for _, p := range []float64{0, 0.25, 0.5, 0.99, 1} {
				x := ref.Quantile(p)
				if got.Quantile(p) != x || got.At(x) != ref.At(x) {
					t.Fatalf("p=%v: quantile %v at %v, want %v at %v", p, got.Quantile(p), got.At(x), x, ref.At(x))
				}
			}
			if got.Mean() != ref.Mean() {
				t.Fatalf("mean = %v, want %v", got.Mean(), ref.Mean())
			}
		}
	}
}

func TestMergeDelayDistsPoolsSamples(t *testing.T) {
	a := []time.Duration{5, 1, 9}
	b := []time.Duration{4, 4, 12, 0}
	got := MergeDelayDists(NewDelayDist(a), DelayDist{}, NewDelayDist(b))
	want := NewDelayDist(append(slices.Clone(a), b...))
	if !slices.Equal(got.sorted, want.sorted) {
		t.Fatalf("merged = %v, want %v", got.sorted, want.sorted)
	}
}

// packDelays builds a record by hand: the count, then raw varint bytes.
func packDelays(count uint64, body ...byte) []byte {
	packed := append(binary.AppendUvarint(nil, count), body...)
	return []byte(`"` + base64.StdEncoding.EncodeToString(packed) + `"`)
}

func TestDelayDistRejectsHostileRecords(t *testing.T) {
	varint := func(v int64) []byte { return binary.AppendVarint(nil, v) }
	uvarint := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	cases := map[string][]byte{
		"not a string":        []byte(`[0.001,0.002]`),
		"bad base64":          []byte(`"!!not base64!!"`),
		"empty string":        []byte(`""`),
		"cut-off count":       []byte(`"` + base64.StdEncoding.EncodeToString([]byte{0x80}) + `"`),
		"cut-off first":       packDelays(1, 0x80),
		"cut-off gap":         packDelays(2, append(varint(5), 0x80)...),
		"varint too long":     packDelays(2, append(varint(5), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)...),
		"count above samples": packDelays(3, append(varint(1<<40), uvarint(1)...)...),
		"count below samples": packDelays(1, append(varint(5), uvarint(1)...)...),
		"count beyond bytes":  packDelays(1<<60, varint(5)...),
		"gap overflows int64": packDelays(2, append(varint(math.MaxInt64-1), uvarint(5)...)...),
	}
	for name, raw := range cases {
		d := NewDelayDist([]time.Duration{7})
		if err := json.Unmarshal(raw, &d); err == nil {
			t.Errorf("%s: decoded to %v, want an error", name, d.sorted)
		}
		if len(d.sorted) != 1 || d.sorted[0] != 7 {
			t.Errorf("%s: a rejected record changed the target to %v", name, d.sorted)
		}
	}
}

func FuzzDelayDistUnmarshal(f *testing.F) {
	for _, ds := range delayMultisets(rand.New(rand.NewSource(2))) {
		raw, _ := NewDelayDist(ds).MarshalJSON()
		f.Add(raw)
	}
	f.Add(packDelays(1<<60, 0x0a))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var d DelayDist
		if d.UnmarshalJSON(raw) != nil {
			return
		}
		if !slices.IsSorted(d.sorted) {
			t.Fatalf("accepted record decodes out of order: %v", d.sorted)
		}
		again, err := d.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var back DelayDist
		if err := back.UnmarshalJSON(again); err != nil || !slices.Equal(back.sorted, d.sorted) {
			t.Fatalf("re-encoded record decodes to %v (%v), want %v", back.sorted, err, d.sorted)
		}
	})
}

// TestSortDurationsMatchesComparisonSort holds the radix path (inputs of
// 2048 samples and more, none negative) to slices.Sort's order on the
// shapes a cell produces and on the ones that stress digit handling.
func TestSortDurationsMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := map[string]func() time.Duration{
		"zeros":    func() time.Duration { return 0 },
		"dups":     func() time.Duration { return time.Duration(rng.Intn(3)) * 1500 * time.Microsecond },
		"delays":   func() time.Duration { return time.Duration(rng.Int63n(int64(3 * time.Second))) },
		"one pass": func() time.Duration { return time.Duration(rng.Intn(2048)) },
		"top":      func() time.Duration { return math.MaxInt64 - time.Duration(rng.Intn(5000)) },
		"wide":     func() time.Duration { return time.Duration(rng.Int63()) },
		"negative": func() time.Duration { return time.Duration(rng.Int63()) - time.Duration(rng.Int63()) },
	}
	for name, draw := range shapes {
		for _, n := range []int{2047, 2048, 2049, 50_000} {
			got := make([]time.Duration, n)
			for i := range got {
				got[i] = draw()
			}
			want := slices.Clone(got)
			slices.Sort(want)
			sortDurations(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%s, %d samples: order differs from slices.Sort", name, n)
			}
		}
	}
}
