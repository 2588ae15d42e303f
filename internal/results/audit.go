package results

import (
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
	groups := make(map[Spec]*AuditLine)
	rep := &AuditReport{}
	var err error
	rep.Unreadable, err = s.eachRecord(func(_ string, k Key, size int64) error {
		tally(groups, k.spec(), size)
		rep.Records++
		rep.Bytes += size
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.Lines = sortedLines(groups)
	return rep, nil
}

// eachRecord calls fn with the path, key and size of every record file
// in the store's experiment directories, and returns how many .json
// files there decodeRecordKey does not accept (or cannot read).
func (s *Store) eachRecord(fn func(path string, k Key, size int64) error) (unreadable int, err error) {
	entries, err := os.ReadDir(s.root)
	if err != nil {
		return 0, err
	}
	for _, dir := range entries {
		if !dir.IsDir() {
			continue
		}
		dirPath := filepath.Join(s.root, dir.Name())
		files, err := os.ReadDir(dirPath)
		if err != nil {
			return 0, err
		}
		for _, f := range files {
			if f.IsDir() || filepath.Ext(f.Name()) != ".json" {
				continue
			}
			path := filepath.Join(dirPath, f.Name())
			raw, err := os.ReadFile(path)
			if err != nil {
				unreadable++
				continue
			}
			k, err := decodeRecordKey(raw)
			if err != nil {
				unreadable++
				continue
			}
			if err := fn(path, k, int64(len(raw))); err != nil {
				return 0, err
			}
		}
	}
	return unreadable, nil
}

// tally adds one record of size bytes to group g's line.
func tally(m map[Spec]*AuditLine, g Spec, size int64) {
	line := m[g]
	if line == nil {
		line = &AuditLine{Spec: g}
		m[g] = line
	}
	line.Records++
	line.Bytes += size
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
