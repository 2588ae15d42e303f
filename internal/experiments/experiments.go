// Package experiments contains one driver per table and figure of the
// paper's evaluation. Each driver runs the simulation matrix for its
// experiment and returns a result type whose String method prints the
// same rows/series the paper reports. README.md carries the experiment
// index.
//
// The matrix is data. A simulation cell is a Scenario — paths,
// scheduler, congestion control, background processes, workload and its
// size — and a cell family is a named list of them, declared once per
// family (grid/<scheduler>, ooo/<wifi>-<lte>, fig16, ...) and read by
// every driver that renders it: Figures 2, 6, 7 and 9 index the
// default-scheduler grid, Table 3 and Figures 5, 13 and 14 the "ooo"
// families, Figure 17 two cells of Figure 16's. A family's record key
// is derived, never written: results.Spec.Experiment is the family name,
// Scale one digest of its scenarios and of its record type's JSON shape,
// and Schema the package's recordSchema, so changing what a cell
// simulates or the shape of what it keeps changes its key, and two
// families cannot simulate the same scenario without a test noticing.
// The key is a record's whole identity: a store record under a current
// key is current, and one under any other key is stranded, for
// -cache-prune to remove. What the key cannot see — a record derived
// differently with the same shape, a simulator model change — is what
// a recordSchema bump is for.
//
// Every driver registers its cells as jobs for the internal/runner
// worker pool and collects results into pre-sized, cell-indexed storage,
// so output is byte-identical for any Workers setting.
package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/results"
	"repro/internal/runner"
)

// Scale sets experiment sizes. The paper streams a 20-minute playout per
// cell and repeats everything 5-30 times on a physical testbed; the Full
// scale trades that down to what a laptop regenerates in minutes while
// preserving every qualitative shape, and Quick keeps unit tests fast.
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
	// ecfbench -j flag). Zero selects GOMAXPROCS. Every cell is an
	// independent simulation seeded by its own index, so results are
	// byte-identical for any worker count.
	Workers int
	// Results is the per-run session (the ecfbench -cache-dir/-shard/
	// -merge flags): its cache/shard policy, and the records the run
	// has produced so far, so drivers that share cells simulate each
	// once between them. Nil computes every cell every time, in-process
	// with no persistence. Like Workers it never affects cell content,
	// only where records come from.
	Results *results.Session
	// Progress, when non-nil, observes cell completion (the ecfbench
	// -progress flag): called after every finished cell with the count
	// completed so far and the batch total, possibly from several
	// worker goroutines at once. Like Workers and Results it never
	// affects cell content.
	Progress func(done, total int)
}

// sizes is the part of a Scale that scenarios read: every field but
// Workers, Results and Progress.
type sizes struct {
	videoSec, gridVideoSec, randomDurSec  float64
	randomScenarios, webRuns, wildWebRuns int
}

func (sc Scale) sizes() sizes {
	return sizes{sc.VideoSec, sc.GridVideoSec, sc.RandomDurSec, sc.RandomScenarios, sc.WebRuns, sc.WildWebRuns}
}

// Full is the bench-scale profile.
var Full = Scale{
	VideoSec:        240,
	GridVideoSec:    90,
	RandomDurSec:    240,
	RandomScenarios: 10,
	WebRuns:         5,
	WildWebRuns:     30,
}

// Quick is the test-scale profile.
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

// A record is what a cell keeps of its scenario's simulation, taken from
// the scenario and the outcome of its Run.
type record[T any] func(Scenario, *Outcome) T

// A family is one cell family: the scenario of every cell, in cell
// order, and the record each cell keeps. Its key is derived from both.
type family[T any] struct {
	spec   results.Spec
	cells  []Scenario
	record record[T]
}

// scenarios returns the family's key and cells, whatever its record
// type.
func (f *family[T]) scenarios() (results.Spec, []Scenario) { return f.spec, f.cells }

// declaredFamily is a family whatever its record type: what the
// declared memo holds.
type declaredFamily interface {
	scenarios() (results.Spec, []Scenario)
}

// familyKey identifies a declared family: a family's scenarios are a
// function of its name and the scale's sizes.
type familyKey struct {
	name  string
	sizes sizes
}

// declared memoizes every family the process has declared, so a
// family's scenarios are built and digested once however many drivers
// and runs read it. It caches a function of its key alone, so no caller
// can observe another's use of it.
var declared sync.Map // familyKey -> *family[T], a declaredFamily

// declare returns the named family at the scale: cells builds its
// scenarios, in cell order, the first time the process asks.
func declare[T any](sc Scale, name string, rec record[T], cells func() []Scenario) *family[T] {
	k := familyKey{name, sc.sizes()}
	if f, ok := declared.Load(k); ok {
		return f.(*family[T])
	}
	cs := cells()
	f := &family[T]{
		spec:   results.Spec{Experiment: name, Schema: recordSchema, Scale: scaleKey[T](cs)},
		cells:  cs,
		record: rec,
	}
	actual, _ := declared.LoadOrStore(k, f)
	return actual.(*family[T])
}

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

// add registers cells of the family on the batch — the listed indexes,
// or every cell when none are listed. collect(i, v) places cell i's
// record in the driver's result; it runs concurrently for distinct
// cells, and the record it receives may be one another driver already
// holds: collect and the driver's renderer read it, and copy before
// changing anything reachable from it.
func (f *family[T]) add(b *results.Batch, collect func(i int, v T), cells ...int) {
	compute := func(i int) T {
		out := f.cells[i].Run()
		defer out.Release()
		return f.record(f.cells[i], out)
	}
	one := func(i int) { results.AddCell(b, f.spec, i, f.cells[i].cost(), compute, collect) }
	if len(cells) == 0 {
		for i := range f.cells {
			one(i)
		}
	}
	for _, i := range cells {
		one(i)
	}
}

// run executes cells of the family (see add) on a batch of their own.
func (f *family[T]) run(sc Scale, collect func(i int, v T), cells ...int) {
	b := newBatch(sc)
	f.add(b, collect, cells...)
	runBatch(b)
}

// newBatch starts a cell batch on the scale's worker pool under its
// cache/shard policy. Drivers register cells with family.add and
// execute them with runBatch; nested sweeps (Figure 9's four grids)
// register everything first so one pool serves the whole flattened
// matrix.
func newBatch(sc Scale) *results.Batch {
	pool := runner.New(sc.Workers)
	pool.OnProgress = sc.Progress
	return results.NewBatch(pool, sc.Results)
}

// runBatch executes the batch's cells. Each cell derives everything from
// its scenario and collects into pre-sized storage, so aggregation is
// order-independent and the sweep's output depends on neither
// sc.Workers nor cache state. Operational cache failures (store I/O,
// uploads) and failed cells (a *results.CellError) surface as a
// *results.FatalError panic, since
// drivers return no errors; the ecfbench harness recovers it for a
// clean exit.
func runBatch(b *results.Batch) {
	if err := b.Run(context.Background()); err != nil {
		panic(&results.FatalError{Err: err})
	}
}

// runSeed derives the RNG seed for repetition run of cell cell of the
// named experiment — runner.SeedRun, so streams stay disjoint across
// experiments even at equal indexes. Drivers that compare schedulers
// over shared randomness pass a cell index that excludes the scheduler,
// preserving the paper's paired design.
func runSeed(experiment string, cell, run int) uint64 {
	return runner.SeedRun(experiment, cell, run)
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
