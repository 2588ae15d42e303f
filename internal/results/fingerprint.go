package results

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
)

// Schema fingerprints close the provenance gap the per-experiment
// Schema number leaves open: the number only changes when a developer
// remembers to bump it, while the fingerprint is derived from the cell
// payload's Go type structure — field names (as JSON sees them), kinds
// and nesting — so a record written by a binary whose payload type has
// since changed shape is caught at read time and treated as a miss
// (with a warning), instead of being silently decoded into the new
// type with zero-filled or dropped fields.
//
// The fingerprint is structural, not nominal: renaming a type (or
// moving it between packages) without changing its JSON shape keeps
// records valid, exactly matching what encoding/json can round-trip.
// It deliberately cannot catch semantic changes that keep the same
// shape (a record derived differently, changed model behaviour) — those
// still require a Schema bump, which code review can check against the
// warning this mechanism produces for shape changes. (A change of what
// a cell simulates — its seeds, paths or workload — changes the key's
// Scale digest instead.)

// A type that marshals itself hides its record form from that walk: its
// exported fields (often none) say nothing about the bytes it writes.
// Such a type names its form through RecordFormat, and the name stands
// in for its structure in the signature; changing the form means
// changing the name, which strands the old records as warned misses.

// recordFormatter is implemented by payload types (or types nested in
// payloads) whose JSON form is their own MarshalJSON's. The method must
// work on the zero value.
type recordFormatter interface {
	RecordFormat() string
}

var recordFormatterType = reflect.TypeOf((*recordFormatter)(nil)).Elem()

// fpCache memoizes fingerprints per payload type.
var fpCache sync.Map // reflect.Type -> string

// typeFingerprint returns a short hex digest of t's structure.
func typeFingerprint(t reflect.Type) string {
	if v, ok := fpCache.Load(t); ok {
		return v.(string)
	}
	var b strings.Builder
	writeTypeSig(&b, t, make(map[reflect.Type]bool))
	sum := sha256.Sum256([]byte(b.String()))
	fp := hex.EncodeToString(sum[:8])
	fpCache.Store(t, fp)
	return fp
}

// writeTypeSig renders a canonical encoding of t's structure: the JSON
// field names and the kinds of everything reachable through exported
// fields (unexported fields are invisible to encoding/json and
// therefore to the record format).
func writeTypeSig(b *strings.Builder, t reflect.Type, seen map[reflect.Type]bool) {
	// Pointers and interfaces are left to the switch: a pointer type
	// inherits its element's methods, and neither kind's zero value can
	// be called through.
	if k := t.Kind(); k != reflect.Pointer && k != reflect.Interface && t.Implements(recordFormatterType) {
		b.WriteString("format(")
		b.WriteString(reflect.Zero(t).Interface().(recordFormatter).RecordFormat())
		b.WriteByte(')')
		return
	}
	switch t.Kind() {
	case reflect.Pointer:
		b.WriteByte('*')
		writeTypeSig(b, t.Elem(), seen)
	case reflect.Slice:
		b.WriteString("[]")
		writeTypeSig(b, t.Elem(), seen)
	case reflect.Array:
		b.WriteByte('[')
		b.WriteString(strconv.Itoa(t.Len()))
		b.WriteByte(']')
		writeTypeSig(b, t.Elem(), seen)
	case reflect.Map:
		b.WriteString("map[")
		writeTypeSig(b, t.Key(), seen)
		b.WriteByte(']')
		writeTypeSig(b, t.Elem(), seen)
	case reflect.Struct:
		if seen[t] {
			// Self-referential payloads; mark the back-edge.
			b.WriteString("recurse")
			return
		}
		seen[t] = true
		b.WriteString("struct{")
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			name := f.Name
			if tag, ok := f.Tag.Lookup("json"); ok {
				if n, _, _ := strings.Cut(tag, ","); n == "-" {
					continue
				} else if n != "" {
					name = n
				}
			}
			b.WriteString(name)
			b.WriteByte(' ')
			writeTypeSig(b, f.Type, seen)
			b.WriteByte(';')
		}
		b.WriteByte('}')
		delete(seen, t)
	case reflect.Interface:
		b.WriteString("any")
	default:
		b.WriteString(t.Kind().String())
	}
}

// payloadFingerprint fingerprints a value to be stored (Put side).
func payloadFingerprint(v any) string {
	t := reflect.TypeOf(v)
	if t == nil {
		return ""
	}
	return typeFingerprint(t)
}

// targetFingerprint fingerprints the type a record is decoded into
// (Get side): into is a pointer to the payload type.
func targetFingerprint(into any) string {
	t := reflect.TypeOf(into)
	if t == nil || t.Kind() != reflect.Pointer {
		return ""
	}
	return typeFingerprint(t.Elem())
}

// warnf reports a fingerprint mismatch. Warnings go to stderr so
// rendered experiment output stays byte-identical; tests swap it out.
var warnf = func(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// warnMismatch emits at most one warning per (group, stored
// fingerprint) so a thousand-cell sweep over a stale group does not
// print a thousand lines.
func (s *Store) warnMismatch(k Key, stored, want string) {
	key := fmt.Sprintf("%s|%s|%d|%s", k.Experiment, k.Scale, k.Schema, stored)
	if _, dup := s.warned.LoadOrStore(key, struct{}{}); dup {
		return
	}
	if stored == "" {
		warnf("results: cache records for %q (schema %d, scale %q) predate payload fingerprints; treating them as misses (they will be recomputed and rewritten)",
			k.Experiment, k.Schema, k.Scale)
		return
	}
	warnf("results: cache records for %q (schema %d, scale %q) were written with payload shape %s but the current binary expects %s — treating them as misses; if the cell semantics changed too, bump the experiment's schema",
		k.Experiment, k.Schema, k.Scale, stored, want)
}
