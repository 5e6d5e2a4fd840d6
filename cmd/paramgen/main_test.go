package main

import (
	"errors"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/ff"
)

// TestRunRejectsWideModulus pins the outside-input check: a base field wider
// than the limb core fails with the named ff error instead of producing
// parameters no arithmetic path can run.
func TestRunRejectsWideModulus(t *testing.T) {
	if err := run(1024, 159, -1); !errors.Is(err, ff.ErrModulusTooWide) {
		t.Fatalf("run(-qbits 1024) = %v, want ff.ErrModulusTooWide", err)
	}
}
