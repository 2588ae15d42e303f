// Package experiments contains one driver per table and figure of the
// paper's evaluation. Each experiment plans the cells it reads and
// renders a result type whose String method prints the same
// rows/series the paper reports. README.md carries the experiment
// index. The paper's claims, and every paper number this package's code
// quotes, are one list, claims (claims.go); TestClaims checks each
// against one catalog plan at Full scale.
//
// The matrix is data. A simulation cell is a Scenario — paths,
// scheduler, congestion control, background processes, workload and its
// size — and a cell family is a named list of them, declared once per
// plan (grid/<scheduler>, ooo/<wifi>-<lte>, fig16, ...) and read by
// every experiment that renders it: Figures 2, 6, 7 and 9 index the
// default-scheduler grid, Table 3 and Figures 5, 13 and 14 the "ooo"
// families, Figure 17 two cells of Figure 16's, Table 4 Figure 23's. A
// family's record key is derived, never written:
// results.Spec.Experiment is the family name, Scale one digest of its
// scenarios and of its record type's JSON shape, and Schema the
// package's recordSchema, so changing what a cell simulates or the
// shape of what it keeps changes its key, and two families cannot
// simulate the same scenario without a test noticing. The key is a
// record's whole identity: a store record under a current key is
// current, and one under any other key is stranded, for -cache-prune to
// remove. What the key cannot see — a record derived differently with
// the same shape, a simulator model change — is what a recordSchema
// bump is for.
//
// A run is plan, then render (Plan). Every selected experiment
// registers the cells it reads on one plan, each collecting into
// pre-sized, cell-indexed storage; one results.Batch executes each
// distinct key of the plan once, most expensive first; then each
// experiment renders what its cells collected. Output is byte-identical
// for any worker count. The exported drivers (Figure9, Table2, ...) are
// that run for one experiment alone.
package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"strconv"
	"strings"
	"time"

	"repro/internal/results"
)

// Scale sets experiment sizes. The paper streams a 20-minute playout per
// cell and repeats everything 5-30 times on a physical testbed; the Full
// scale trades that down to a whole catalog of about 6 CPU-seconds (3.6 s
// wall cold at -j 2 on a 2-CPU host) that keeps the claims table's
// shapes, and Quick keeps unit tests fast. The first six fields are
// sizes, and a family's cells change with each it reads; Workers and
// Results are the run's policy: every cell is an independent simulation
// seeded by its own index, so they change only where records come from.
type Scale struct {
	// VideoSec is the playout length for single-cell streaming studies.
	VideoSec float64
	// GridVideoSec is the per-cell playout length for 6×6 heat maps.
	GridVideoSec float64
	// RandomDurSec is the §5.3 scenario length.
	RandomDurSec float64
	// RandomScenarios is the §5.3 scenario count.
	RandomScenarios int
	// WebRuns repeats each wget/page configuration.
	WebRuns int
	// WildWebRuns is the §6.3 run count.
	WildWebRuns int
	// Workers bounds how many simulation cells run concurrently (the
	// ecfbench -j flag). Zero selects GOMAXPROCS.
	Workers int
	// Results is the session (the ecfbench -cache-dir/-shard/-merge
	// flags): its cache/shard policy, and the records it has produced
	// so far, so drivers run one after another under it simulate a
	// shared cell once between them. Nil computes every cell, in-process
	// with no persistence.
	Results *results.Session
}

// Full is the bench-scale profile, and the one TestClaims checks the
// claims table at.
var Full = Scale{
	VideoSec:        240,
	GridVideoSec:    90,
	RandomDurSec:    240,
	RandomScenarios: 10,
	WebRuns:         5,
	WildWebRuns:     30,
}

// Quick is the test-scale profile: 0.7 s wall for the whole catalog cold
// at -j 2 on a 2-CPU host. Its 30 s grid playout is all start-up
// wherever 8.6 Mbps is on either axis (every such cell prints 0.22 under
// all four schedulers), so Figures 2 and 9 cannot show their claims at
// Quick.
var Quick = Scale{
	VideoSec:        60,
	GridVideoSec:    30,
	RandomDurSec:    80,
	RandomScenarios: 3,
	WebRuns:         2,
	WildWebRuns:     6,
}

// recordSchema is every family's results.Spec.Schema. Bump it when what
// a record holds, or how it is derived from the simulation, changes
// without changing the record's Go shape — a simulator model change
// included: every key changes with it, and every cell is computed once
// more.
const recordSchema = 1

// scaleKey is the Scale of a family keeping records of type T: 64 bits
// of SHA-256 over T's JSON shape and the canonical encoding of the
// family's scenarios, so two families share a Scale only if their
// records have one shape and their scenario lists are equal, field by
// field.
func scaleKey[T any](cells []Scenario) string {
	shape := appendShape(nil, reflect.TypeOf((*T)(nil)).Elem(), map[reflect.Type]bool{})
	b := binary.AppendUvarint(nil, uint64(len(shape)))
	b = append(b, shape...)
	v := reflect.ValueOf(cells)
	for i := range cells {
		b = appendCanonical(b, v.Index(i))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// recordFormatter is implemented by a record type, or a type nested in
// one, that marshals itself (metrics.DelayDist): its exported fields,
// often none, say nothing about the bytes it writes, so it names its
// record form instead. The method must work on the zero value.
type recordFormatter interface {
	RecordFormat() string
}

var recordFormatterType = reflect.TypeOf((*recordFormatter)(nil)).Elem()

// appendShape appends t's JSON shape: the JSON name of every field
// encoding/json writes, and the kinds of everything reachable through
// them. It is structural, not nominal — renaming a type or moving it
// between packages keeps its shape, exactly as encoding/json can still
// round-trip its records. A recordFormatter contributes its format name
// in place of its structure, so changing the form means changing the
// name. seen marks the structs being walked, to cut a self-referential
// type's back-edge.
func appendShape(b []byte, t reflect.Type, seen map[reflect.Type]bool) []byte {
	// Pointers and interfaces are left to the switch: a pointer type
	// inherits its element's methods, and neither kind's zero value can
	// be called through.
	if k := t.Kind(); k != reflect.Pointer && k != reflect.Interface && t.Implements(recordFormatterType) {
		b = append(b, "format("...)
		b = append(b, reflect.Zero(t).Interface().(recordFormatter).RecordFormat()...)
		return append(b, ')')
	}
	switch t.Kind() {
	case reflect.Pointer:
		return appendShape(append(b, '*'), t.Elem(), seen)
	case reflect.Slice:
		return appendShape(append(b, "[]"...), t.Elem(), seen)
	case reflect.Array:
		b = strconv.AppendInt(append(b, '['), int64(t.Len()), 10)
		return appendShape(append(b, ']'), t.Elem(), seen)
	case reflect.Map:
		b = appendShape(append(b, "map["...), t.Key(), seen)
		return appendShape(append(b, ']'), t.Elem(), seen)
	case reflect.Struct:
		if seen[t] {
			return append(b, "recurse"...)
		}
		seen[t] = true
		b = append(b, "struct{"...)
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue // invisible to encoding/json
			}
			name := f.Name
			if tag, ok := f.Tag.Lookup("json"); ok {
				if n, _, _ := strings.Cut(tag, ","); n == "-" {
					continue
				} else if n != "" {
					name = n
				}
			}
			b = appendShape(append(append(b, name...), ' '), f.Type, seen)
			b = append(b, ';')
		}
		delete(seen, t)
		return append(b, '}')
	case reflect.Interface:
		return append(b, "any"...)
	}
	return append(b, t.Kind().String()...)
}

// appendCanonical appends v's encoding: every field in declaration
// order, integers as varints, floats as their bits, strings
// length-prefixed — self-delimiting, so concatenated encodings stay
// unambiguous. It panics on the kinds a Scenario must not hold.
func appendCanonical(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			b = appendCanonical(b, v.Field(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			b = appendCanonical(b, v.Index(i))
		}
	case reflect.String:
		b = binary.AppendUvarint(b, uint64(v.Len()))
		b = append(b, v.String()...)
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.Int, reflect.Int64:
		b = binary.AppendVarint(b, v.Int())
	case reflect.Uint8, reflect.Uint64:
		b = binary.AppendUvarint(b, v.Uint())
	case reflect.Float64:
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
	default:
		panic("experiments: a scenario holds a " + v.Kind().String())
	}
	return b
}

// seed derives a 64-bit seed for one cell from its experiment name and
// cell index. Feeding the result to sim.NewRNG gives every cell its own
// stream that depends only on (experiment, cell) — never on worker
// count or completion order — so adding draws in one cell cannot
// perturb another. FNV-1a over the name, golden-ratio mix of the index,
// splitmix64 finalizer.
func seed(experiment string, cell int) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(experiment); i++ {
		h ^= uint64(experiment[i])
		h *= 1099511628211
	}
	h ^= (uint64(cell) + 1) * 0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// runSeed derives the seed for repetition run of cell cell — seed's
// two-level variant for experiments that repeat each cell several
// times. Same namespacing guarantee as seed, plus streams disjoint
// across runs of one cell; the result is never zero (simulator path
// specs treat a zero seed as "use the default stream"). Experiments
// comparing schedulers over shared randomness pass a cell index that
// excludes the scheduler so both sides see identical draws (the
// paper's paired design).
func runSeed(experiment string, cell, run int) uint64 {
	s := seed(experiment, cell) + uint64(run)*0x9e3779b97f4a7c15
	s ^= s >> 30
	s *= 0xbf58476d1ce4e5b9
	s ^= s >> 27
	if s == 0 {
		s = 1
	}
	return s
}

// seconds converts a float of seconds to a duration.
func seconds(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// fmtMbps labels a bandwidth: an integer as such, anything else rounded
// to one decimal.
func fmtMbps(v float64) string {
	return strconv.FormatFloat(math.Round(v*10)/10, 'f', -1, 64)
}
