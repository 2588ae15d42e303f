package results

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// PruneOptions parameterizes a Prune pass.
type PruneOptions struct {
	// Keep reports whether a cell family belongs to the active matrix.
	// Records of rejected families are always deleted. A nil Keep treats
	// every family as active — the age-only form: Prune(PruneOptions{
	// OlderThan: ...}) deletes nothing but out-aged records.
	Keep func(Spec) bool
	// OlderThan, when positive, additionally deletes records *inside*
	// the active matrix whose file modification time is older than
	// Now-OlderThan — the age-based variant that bounds store growth
	// for operators who sweep many scales (a record's mtime is its last
	// write: results.Store rewrites a record's file on every cache
	// miss, so age means "not recomputed since", while cache hits do
	// not refresh it).
	OlderThan time.Duration
	// Now anchors the age cutoff; the zero value selects time.Now().
	Now time.Time
	// DryRun reports what would be deleted without removing anything.
	DryRun bool
}

// PruneReport summarizes a Prune pass.
type PruneReport struct {
	// Deleted lists the removed groups (in dry-run mode: the groups that
	// would be removed), sorted like an audit.
	Deleted []AuditLine
	// Aged lists records removed by the OlderThan cutoff — groups the
	// active matrix still reads, whose records were last written before
	// the cutoff — sorted like an audit.
	Aged []AuditLine
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

// AgedRecords totals the age-pruned record count.
func (r *PruneReport) AgedRecords() int {
	n := 0
	for _, l := range r.Aged {
		n += l.Records
	}
	return n
}

// AgedBytes totals the age-pruned bytes.
func (r *PruneReport) AgedBytes() int64 {
	var n int64
	for _, l := range r.Aged {
		n += l.Bytes
	}
	return n
}

// Prune walks the store and deletes every record whose (experiment,
// scale, schema) group opts.Keep rejects — the groups a current run
// would no longer read, per the enumerated active matrix — plus, when
// opts.OlderThan is set, records inside the active matrix last written
// before the age cutoff. With DryRun set, nothing is removed and the
// report shows what a real pass would delete. Experiment directories
// left empty by the pass are removed.
func (s *Store) Prune(opts PruneOptions) (*PruneReport, error) {
	entries, err := os.ReadDir(s.root)
	if err != nil {
		return nil, err
	}
	keep := opts.Keep
	if keep == nil {
		keep = func(Spec) bool { return true }
	}
	cutoff := time.Time{}
	if opts.OlderThan > 0 {
		now := opts.Now
		if now.IsZero() {
			now = time.Now()
		}
		cutoff = now.Add(-opts.OlderThan)
	}
	deleted := make(map[Spec]*AuditLine)
	aged := make(map[Spec]*AuditLine)
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
			lines := deleted
			if keep(g) {
				tooOld := false
				if !cutoff.IsZero() {
					if info, err := f.Info(); err == nil && info.ModTime().Before(cutoff) {
						tooOld = true
					}
				}
				if !tooOld {
					rep.KeptRecords++
					rep.KeptBytes += int64(len(raw))
					continue
				}
				lines = aged
			}
			if !opts.DryRun {
				if err := os.Remove(path); err != nil {
					return nil, err
				}
				removed++
			}
			line := lines[g]
			if line == nil {
				line = &AuditLine{Spec: g}
				lines[g] = line
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
	rep.Aged = sortedLines(aged)
	return rep, nil
}
