package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestRunRejectsNoReps: fewer than one repetition would record an all-zero
// timing entry that silently disables the next -history regression gate,
// so run must fail before any benchmark runs or the history is touched.
func TestRunRejectsNoReps(t *testing.T) {
	for _, reps := range []int{0, -1} {
		path := filepath.Join(t.TempDir(), "hist.json")
		if err := run(path, reps); err == nil {
			t.Errorf("-reps %d: run succeeded", reps)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("-reps %d: run touched %s", reps, path)
		}
	}
}
