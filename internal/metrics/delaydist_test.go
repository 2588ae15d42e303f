package metrics

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
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

// TestDelayDistRecordRoundTripIsExact sends distributions through their
// record form and holds every statistic of what comes back to a CDF over
// the samples in seconds, bit for bit: CCDFAt at each sample, just below
// it and between neighbours, Quantile at the rendered probabilities and
// the edges, and Mean. The inputs are the delayMultisets shapes, one
// large enough for the radix sort, and merges of 1, 2 and 30 parts,
// empty ones among them.
func TestDelayDistRecordRoundTripIsExact(t *testing.T) {
	check := func(name string, ds []time.Duration, d DelayDist) {
		t.Helper()
		// The distribution travels inside a record struct, as it does in
		// PageOutcome.
		type record struct {
			N   int
			OOO DelayDist
		}
		raw, err := json.Marshal(record{N: len(ds), OOO: d})
		if err != nil {
			t.Fatal(err)
		}
		var back record
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("%s: decoding %d samples: %v", name, len(ds), err)
		}
		got := back.OOO
		want := slices.Clone(ds)
		slices.Sort(want)
		if back.N != len(ds) || !slices.Equal(got.sorted, want) {
			t.Fatalf("%s: decoded %d samples, want %d, or they differ", name, len(got.sorted), len(ds))
		}
		ref := NewCDF(DurationsToSeconds(ds))
		same := func(what string, g, w float64) {
			t.Helper()
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s, %d samples: %s = %v, want %v", name, len(ds), what, g, w)
			}
		}
		for i, v := range want {
			x := v.Seconds()
			below := math.Nextafter(x, math.Inf(-1))
			same(fmt.Sprintf("CCDFAt(%v)", x), got.CCDFAt(x), ref.ccdfAt(x))
			same(fmt.Sprintf("CCDFAt(%v)", below), got.CCDFAt(below), ref.ccdfAt(below))
			if i > 0 {
				mid := want[i-1].Seconds()/2 + x/2
				same(fmt.Sprintf("CCDFAt(%v)", mid), got.CCDFAt(mid), ref.ccdfAt(mid))
			}
		}
		for _, p := range []float64{0, 1e-9, 0.25, 0.5, 0.9, 0.99, 1} {
			same(fmt.Sprintf("Quantile(%v)", p), got.Quantile(p), ref.Quantile(p))
		}
		same("Mean", got.Mean(), ref.Mean())
	}

	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		for _, ds := range delayMultisets(rng) {
			check("multiset", ds, NewDelayDist(ds))
		}
	}

	// Non-negative and past 2048 samples, so NewDelayDist radix-sorts;
	// a third are zero, as in a streaming cell.
	radix := make([]time.Duration, 5000)
	for i := range radix {
		if rng.Intn(3) > 0 {
			radix[i] = time.Duration(rng.Int63n(int64(3 * time.Second)))
		}
	}
	check("radix", radix, NewDelayDist(radix))

	for _, n := range []int{1, 2, 30} {
		var all []time.Duration
		parts := make([]DelayDist, n)
		for i := range parts {
			var ds []time.Duration // every fifth part, and the first of two, is empty
			if i%5 != 0 || n == 1 {
				shapes := delayMultisets(rng)
				ds = shapes[rng.Intn(len(shapes))]
			}
			all = append(all, ds...)
			parts[i] = NewDelayDist(ds)
		}
		check(fmt.Sprintf("merge of %d", n), all, MergeDelayDists(parts...))
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

// TestMergeDelayDistsMatchesSort holds the merge to a sort of the
// pooled samples on its edges: parts of zero to five samples, parts
// that open with the smallest sample of all and parts that do not, ties
// across parts, and every part count from 0 to 9 (odd counts leave a
// part unpaired in a round).
func TestMergeDelayDistsMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 2000; round++ {
		parts := make([]DelayDist, rng.Intn(10))
		var all []time.Duration
		for i := range parts {
			ds := make([]time.Duration, rng.Intn(6))
			for j := range ds {
				ds[j] = time.Duration(rng.Intn(4) - 1)
			}
			all = append(all, ds...)
			parts[i] = NewDelayDist(ds)
		}
		want := slices.Clone(all)
		slices.Sort(want)
		if got := MergeDelayDists(parts...); !slices.Equal(got.sorted, want) || len(got.sorted) != len(want) {
			t.Fatalf("merging %d parts gave %v, want %v", len(parts), got.sorted, want)
		}
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
	cat := func(parts ...[]byte) []byte {
		var b []byte
		for _, p := range parts {
			b = append(b, p...)
		}
		return b
	}
	run := func(n uint64) []byte { return cat(uvarint(0), uvarint(n)) } // a zero gap and its run
	// A well-formed record whose last base64 character carries a set
	// padding bit: "AQo=" is the canonical form of count 1, sample 5.
	padded := []byte(`"AQp="`)
	cases := map[string][]byte{
		"not a string":        []byte(`[0.001,0.002]`),
		"bad base64":          []byte(`"!!not base64!!"`),
		"stray padding bits":  padded,
		"newline in base64":   []byte("\"AQ\no=\""),
		"empty string":        []byte(`""`),
		"cut-off count":       []byte(`"` + base64.StdEncoding.EncodeToString([]byte{0x80}) + `"`),
		"over-long count":     []byte(`"` + base64.StdEncoding.EncodeToString(cat([]byte{0x81, 0x00}, varint(5))) + `"`),
		"cut-off first":       packDelays(1, 0x80),
		"over-long first":     packDelays(1, 0x8a, 0x00),
		"cut-off gap":         packDelays(2, cat(varint(5), []byte{0x80})...),
		"over-long gap":       packDelays(2, cat(varint(5), []byte{0x81, 0x80, 0x00})...),
		"varint too long":     packDelays(2, cat(varint(5), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})...),
		"count above samples": packDelays(3, cat(varint(1<<40), uvarint(1))...),
		"count below samples": packDelays(1, cat(varint(5), uvarint(1))...),
		"count beyond bytes":  packDelays(1<<60, varint(5)...),
		"gap overflows int64": packDelays(2, cat(varint(math.MaxInt64-1), uvarint(5))...),
		// The run form.
		"run past the count":       packDelays(3, cat(varint(5), run(5))...),
		"run cut off":              packDelays(3, cat(varint(5), uvarint(0), []byte{0x82})...),
		"run of nothing":           packDelays(2, cat(varint(5), run(0), uvarint(3))...),
		"zero-run chain":           packDelays(4, cat(varint(5), run(1), run(2))...),
		"count above run samples":  packDelays(5, cat(varint(5), run(2))...),
		"count below run samples":  packDelays(3, cat(varint(5), run(2), uvarint(7))...),
		"run past the record size": packDelays(maxRecordSamples+1, cat(varint(0), run(maxRecordSamples))...),
	}
	for name, raw := range cases {
		d := NewDelayDist([]time.Duration{7})
		if err := d.UnmarshalJSON(raw); err == nil {
			t.Errorf("%s: decoded to %v, want an error", name, d.sorted)
		}
		if len(d.sorted) != 1 || d.sorted[0] != 7 {
			t.Errorf("%s: a rejected record changed the target to %v", name, d.sorted)
		}
	}

	// A count far past what a tiny body encodes is refused before any
	// sample memory is asked for: 2^22 samples would be 32 MiB.
	huge := packDelays(maxRecordSamples, varint(5)...)
	const tries = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < tries; i++ {
		var d DelayDist
		if d.UnmarshalJSON(huge) == nil {
			t.Fatal("a record claiming 2^22 samples in one decoded")
		}
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / tries; perCall > 1024 {
		t.Fatalf("rejecting a %d-byte record allocated %d bytes", len(huge), perCall)
	}
}

// FuzzDelayDistUnmarshal holds the decoder to the encoder's form: an
// accepted record is ordered and re-encodes to exactly its own bytes.
func FuzzDelayDistUnmarshal(f *testing.F) {
	for _, ds := range delayMultisets(rand.New(rand.NewSource(2))) {
		raw, _ := NewDelayDist(ds).MarshalJSON()
		f.Add(raw)
	}
	// Runs of every varint length: 2, 130 and 20000 equal samples.
	long := []time.Duration{1}
	for _, n := range []int{130, 20000} {
		for i := 0; i < n; i++ {
			long = append(long, time.Duration(n))
		}
	}
	for _, ds := range [][]time.Duration{{0, 0, 0, 4, 4, 9}, {3, 3}, long} {
		raw, _ := NewDelayDist(ds).MarshalJSON()
		f.Add(raw)
	}
	f.Add(packDelays(1<<60, 0x0a))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var d DelayDist
		if d.UnmarshalJSON(raw) != nil || string(raw) == "null" {
			return
		}
		if !slices.IsSorted(d.sorted) {
			t.Fatalf("accepted record decodes out of order: %v", d.sorted)
		}
		again, err := d.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(raw) {
			t.Fatalf("accepted record %q re-encodes as %q", raw, again)
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

// benchDelayRecords draws two distributions shaped like the extremes of
// a full-scale store's delay records. "distinct" is about 92k mostly
// distinct samples whose gaps are spread evenly over one-, two- and
// three-byte varints, about 1.9 bytes a sample (an "ooo/0.3-8.6"
// cell). "runs" is about 164k samples in about 18k tokens, one value in
// seven repeated some 70 times (an "ooo/4.2-8.6" cell).
func benchDelayRecords() []namedDelays {
	rng := rand.New(rand.NewSource(3))
	logUniform := func(bits float64) time.Duration { return time.Duration(math.Exp2(rng.Float64() * bits)) }
	var distinct []time.Duration
	var at time.Duration
	for len(distinct) < 92_000 {
		if rng.Intn(900) > 0 {
			at += logUniform(20)
		}
		distinct = append(distinct, at)
	}
	var runs []time.Duration
	at = 0
	for len(runs) < 164_000 {
		at += logUniform(15)
		n := 1
		if rng.Intn(7) == 0 {
			n += rng.Intn(140)
		}
		for i := 0; i < n; i++ {
			runs = append(runs, at)
		}
	}
	return []namedDelays{{"distinct", NewDelayDist(distinct)}, {"runs", NewDelayDist(runs)}}
}

type namedDelays struct {
	name string
	d    DelayDist
}

// BenchmarkDelayDistDecode reads a record back, base64 included, and
// reports the cost per sample and the record's packed bytes per sample.
func BenchmarkDelayDistDecode(b *testing.B) {
	for _, rec := range benchDelayRecords() {
		d := rec.d
		raw, err := d.MarshalJSON()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(rec.name, func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			for i := 0; i < b.N; i++ {
				var back DelayDist
				if err := back.UnmarshalJSON(raw); err != nil {
					b.Fatal(err)
				}
			}
			n := float64(len(d.sorted))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/sample")
			b.ReportMetric(float64(base64.StdEncoding.DecodedLen(len(raw)-2))/n, "packed-bytes/sample")
		})
	}
}

// mergeSink keeps BenchmarkMergeDelayDists' result live.
var mergeSink DelayDist

// BenchmarkMergeDelayDists pools 30 runs of about 3k samples each, as
// Figure 23 and Table 4 pool a scheduler's wild web runs, in two
// shapes. "web" has over half its delays zero, as those pools do (55 %
// and 64 % of a full-scale Figure 23 pool, 34–63 % of a Figure 21 one),
// so long stretches come from one side. "distinct" has no zeros and
// every sample distinct, so which side holds the next one is a coin
// toss.
func BenchmarkMergeDelayDists(b *testing.B) {
	for _, shape := range []struct {
		name  string
		zeros int // in 20
	}{{"web", 11}, {"distinct", 0}} {
		rng := rand.New(rand.NewSource(4))
		parts := make([]DelayDist, 30)
		n := 0
		for i := range parts {
			ds := make([]time.Duration, 2700+rng.Intn(700))
			for j := range ds {
				if rng.Intn(20) >= shape.zeros {
					ds[j] = 1 + time.Duration(rng.ExpFloat64()*float64(40*time.Millisecond))
				}
			}
			parts[i] = NewDelayDist(ds)
			n += len(ds)
		}
		b.Run(shape.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mergeSink = MergeDelayDists(parts...)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/sample")
		})
	}
}
