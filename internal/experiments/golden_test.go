package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// fig9QuickSHA256 pins the rendered Figure 9 quick-scale report. It was
// captured before the allocation-free simulation core landed (PR 3) and
// guards the refactor's byte-identity contract: any engine, link or
// subflow change that alters event ordering, RNG consumption or float
// arithmetic shows up here as a hash mismatch. Bump it only for an
// intentional model change (alongside the affected cache schema
// versions).
const fig9QuickSHA256 = "a28f3534390a8a3ebd0bba213f99893633b3f04c26c2e147bb9efc380329253c"

// TestFigure9QuickByteIdentical renders the full Figure 9 quick sweep at
// two worker counts and checks both against the pinned pre-refactor
// hash: the simulation core must produce byte-identical reports
// regardless of parallelism and across the pooled-timer rewrite.
func TestFigure9QuickByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole fig9 quick sweep")
	}
	for _, workers := range []int{1, 8} {
		sc := Quick
		sc.Workers = workers
		out := Figure9(sc).String()
		sum := sha256.Sum256([]byte(out))
		if got := hex.EncodeToString(sum[:]); got != fig9QuickSHA256 {
			t.Errorf("Workers=%d: fig9 quick hash = %s, want %s (output no longer byte-identical to the pre-refactor core)",
				workers, got, fig9QuickSHA256)
		}
	}
}
