package results

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// PruneOptions parameterizes a Prune pass.
type PruneOptions struct {
	// Keep reports whether a cell family belongs to the active matrix.
	// Records of rejected families are deleted. A record's key is its
	// whole identity, so a kept family's records are current however
	// old they are.
	Keep func(Spec) bool
	// DryRun reports what would be deleted without removing anything.
	DryRun bool
}

// PruneReport summarizes a Prune pass.
type PruneReport struct {
	// Deleted lists the removed groups (in dry-run mode: the groups that
	// would be removed), sorted like an audit.
	Deleted []AuditLine
	// KeptRecords/KeptBytes total the surviving records.
	KeptRecords int
	KeptBytes   int64
	// Unreadable counts files that failed to parse as records. Prune
	// leaves them untouched: they are already treated as misses at read
	// time, and deleting what cannot be identified is not this tool's
	// call.
	Unreadable int
}

// DeletedRecords totals the removed record count.
func (r *PruneReport) DeletedRecords() int {
	n := 0
	for _, l := range r.Deleted {
		n += l.Records
	}
	return n
}

// DeletedBytes totals the removed bytes.
func (r *PruneReport) DeletedBytes() int64 {
	var n int64
	for _, l := range r.Deleted {
		n += l.Bytes
	}
	return n
}

// Prune walks the store and deletes every record whose (experiment,
// scale, schema) group opts.Keep rejects — the groups a current run
// would no longer read, per the enumerated active matrix. With DryRun
// set, nothing is removed and the report shows what a real pass would
// delete. Experiment directories left empty by the pass are removed.
func (s *Store) Prune(opts PruneOptions) (*PruneReport, error) {
	entries, err := os.ReadDir(s.root)
	if err != nil {
		return nil, err
	}
	deleted := make(map[Spec]*AuditLine)
	rep := &PruneReport{}
	for _, dir := range entries {
		if !dir.IsDir() {
			continue
		}
		dirPath := filepath.Join(s.root, dir.Name())
		files, err := os.ReadDir(dirPath)
		if err != nil {
			return nil, err
		}
		removed := 0
		for _, f := range files {
			if f.IsDir() || filepath.Ext(f.Name()) != ".json" {
				continue
			}
			path := filepath.Join(dirPath, f.Name())
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
			if opts.Keep(g) {
				rep.KeptRecords++
				rep.KeptBytes += int64(len(raw))
				continue
			}
			if !opts.DryRun {
				if err := os.Remove(path); err != nil {
					return nil, err
				}
				removed++
			}
			line := deleted[g]
			if line == nil {
				line = &AuditLine{Spec: g}
				deleted[g] = line
			}
			line.Records++
			line.Bytes += int64(len(raw))
		}
		if removed > 0 {
			// Drop the directory when the pass emptied it; Remove fails
			// harmlessly when stray files (temp files, unreadable
			// records) remain.
			os.Remove(dirPath)
		}
	}
	rep.Deleted = sortedLines(deleted)
	return rep, nil
}
