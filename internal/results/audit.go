package results

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
)

// AuditLine summarizes the records one cell family occupies in a store.
type AuditLine struct {
	Spec
	Records int
	Bytes   int64
}

// AuditReport is the result of walking a store.
type AuditReport struct {
	// Lines is sorted by (experiment, scale, schema).
	Lines []AuditLine
	// Records and Bytes total the readable records.
	Records int
	Bytes   int64
	// Unreadable counts files that failed to parse as records (partial
	// writes from killed processes, hand-edited files). They are normal
	// cache misses at read time; the audit surfaces them so an operator
	// can judge whether a store is worth keeping.
	Unreadable int
}

// Audit walks the store and groups every record by (experiment, scale,
// schema) — the -cache-stats mode, answering "what is occupying this
// cache dir and which of it would a current run still read?".
func (s *Store) Audit() (*AuditReport, error) {
	entries, err := os.ReadDir(s.root)
	if err != nil {
		return nil, err
	}
	groups := make(map[Spec]*AuditLine)
	rep := &AuditReport{}
	for _, dir := range entries {
		if !dir.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.root, dir.Name()))
		if err != nil {
			return nil, err
		}
		for _, f := range files {
			if f.IsDir() || filepath.Ext(f.Name()) != ".json" {
				continue
			}
			path := filepath.Join(s.root, dir.Name(), f.Name())
			raw, err := os.ReadFile(path)
			if err != nil {
				rep.Unreadable++
				continue
			}
			var env envelope
			if json.Unmarshal(raw, &env) != nil || env.Key.Experiment == "" {
				rep.Unreadable++
				continue
			}
			g := env.Key.spec()
			line := groups[g]
			if line == nil {
				line = &AuditLine{Spec: g}
				groups[g] = line
			}
			line.Records++
			line.Bytes += int64(len(raw))
			rep.Records++
			rep.Bytes += int64(len(raw))
		}
	}
	rep.Lines = sortedLines(groups)
	return rep, nil
}

// sortedLines flattens a per-family tally into audit order.
func sortedLines(m map[Spec]*AuditLine) []AuditLine {
	var out []AuditLine
	for _, line := range m {
		out = append(out, *line)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Spec.less(out[j].Spec) })
	return out
}
