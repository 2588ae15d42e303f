package results

import (
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
	deleted := make(map[Spec]*AuditLine)
	emptied := make(map[string]bool) // directories a removal touched
	rep := &PruneReport{}
	var err error
	rep.Unreadable, err = s.eachRecord(func(path string, k Key, size int64) error {
		g := k.spec()
		if opts.Keep(g) {
			rep.KeptRecords++
			rep.KeptBytes += size
			return nil
		}
		if !opts.DryRun {
			if err := os.Remove(path); err != nil {
				return err
			}
			emptied[filepath.Dir(path)] = true
		}
		tally(deleted, g, size)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for dir := range emptied {
		// Drop the directory when the pass emptied it; Remove fails
		// harmlessly when stray files (temp files, unreadable records)
		// remain.
		os.Remove(dir)
	}
	rep.Deleted = sortedLines(deleted)
	return rep, nil
}
