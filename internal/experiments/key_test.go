package experiments

import (
	"testing"
	"time"

	"repro/internal/metrics"
)

// keyCells are the scenarios every test here keys records of different
// types under, so only the record type differs between two Scales.
var keyCells = []Scenario{Streaming(0.3, 8.6, "minrtt", 60), Streaming(0.3, 8.6, "ecf", 60)}

// TestScaleChangesWithRecordShape: a record type whose JSON shape
// differs — a field added, retyped or renamed as JSON sees it, a value
// turned into a pointer or a slice — re-keys the family, so records of
// the old shape are never decoded into the new one.
func TestScaleChangesWithRecordShape(t *testing.T) {
	type base struct {
		Ratio float64
		OOO   []time.Duration
	}
	want := scaleKey[base](keyCells)
	for name, got := range map[string]string{
		"field added": scaleKey[struct {
			Ratio float64
			OOO   []time.Duration
			Extra int64
		}](keyCells),
		"field retyped": scaleKey[struct {
			Ratio float32
			OOO   []time.Duration
		}](keyCells),
		"field renamed by its tag": scaleKey[struct {
			Ratio float64 `json:"ratio"`
			OOO   []time.Duration
		}](keyCells),
		"field dropped": scaleKey[struct{ Ratio float64 }](keyCells),
		"pointer":       scaleKey[*base](keyCells),
		"slice":         scaleKey[[]base](keyCells),
	} {
		if got == want {
			t.Errorf("%s: the record type's Scale did not change", name)
		}
	}
}

// TestScaleKeepsRecordShape: the shape is structural, not nominal — a
// renamed type, or one that differs only in what encoding/json never
// writes, keeps its records.
func TestScaleKeepsRecordShape(t *testing.T) {
	type recV1 struct{ X int64 }
	type renamed struct{ X int64 }
	want := scaleKey[recV1](keyCells)
	for name, got := range map[string]string{
		"renamed type": scaleKey[renamed](keyCells),
		"unexported field added": scaleKey[struct {
			X       int64
			scratch []int
		}](keyCells),
		"field the encoder skips": scaleKey[struct {
			X    int64
			Memo string `json:"-"`
		}](keyCells),
	} {
		if got != want {
			t.Errorf("%s: the record type's Scale changed", name)
		}
	}
}

// decimalCount and hexCount stand in for two types that marshal
// themselves, a count in decimal and in hex: alike in structure, with no
// exported fields, so only their format names tell a record of one from
// a record of the other.
type (
	decimalCount struct{ n int64 }
	hexCount     struct{ n int64 }
)

func (decimalCount) RecordFormat() string { return "count/decimal" }
func (hexCount) RecordFormat() string     { return "count/hex" }

// delayDistForm stands in for metrics.DelayDist under its current record
// form, and delayDistNext under a renamed one.
type (
	delayDistForm struct{}
	delayDistNext struct{}
)

func (delayDistForm) RecordFormat() string { return metrics.DelayDist{}.RecordFormat() }
func (delayDistNext) RecordFormat() string { return metrics.DelayDist{}.RecordFormat() + "+next" }

// TestScaleChangesWithRecordFormat: a type that marshals itself keys its
// records by its RecordFormat name, bare or nested in a record's field,
// and metrics.DelayDist's name is all of its shape — a type of another
// structure under the same name keys like it, and a renamed form
// re-keys every family holding it.
func TestScaleChangesWithRecordFormat(t *testing.T) {
	t.Run("bare", func(t *testing.T) {
		if scaleKey[decimalCount](keyCells) == scaleKey[hexCount](keyCells) {
			t.Error("two record formats of one structure share a Scale")
		}
	})
	t.Run("nested", func(t *testing.T) {
		type decimalRec struct {
			Runs  int
			Count decimalCount
		}
		type hexRec struct {
			Runs  int
			Count hexCount
		}
		if scaleKey[decimalRec](keyCells) == scaleKey[hexRec](keyCells) {
			t.Error("records nesting two formats of one structure share a Scale")
		}
	})
	t.Run("DelayDist", func(t *testing.T) {
		type oooForm struct {
			Delays          delayDistForm
			LastPacketDiffs []float64
			IWResets        int64
		}
		type oooNext struct {
			Delays          delayDistNext
			LastPacketDiffs []float64
			IWResets        int64
		}
		type pageNext struct {
			Completions []time.Duration
			OOODelays   delayDistNext
		}
		ooo := scaleKey[oooCell](keyCells)
		if scaleKey[oooForm](keyCells) != ooo {
			t.Error("DelayDist keys by more than its record format name")
		}
		if scaleKey[oooNext](keyCells) == ooo {
			t.Error("renaming DelayDist's record form keeps the \"ooo\" families' Scale")
		}
		if scaleKey[*pageNext](keyCells) == scaleKey[*PageOutcome](keyCells) {
			t.Error("renaming DelayDist's record form keeps the page families' Scale")
		}
		if scaleKey[metrics.DelayDist](keyCells) == scaleKey[delayDistNext](keyCells) {
			t.Error("renaming a bare DelayDist's record form keeps its Scale")
		}
	})
}
