package lp

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestUnsolvableErrorTyping pins the contract the planning service builds
// its 422 mapping on: a numerical bailout matches ErrUnsolvable AND the
// underlying engine failure, and names the problem size.
func TestUnsolvableErrorTyping(t *testing.T) {
	p := &Problem{NumVars: 3, Cons: make([]Constraint, 2)}
	cause := fmt.Errorf("pivot stall: %w", errNumeric)
	err := unsolvableError(p, cause)
	if !errors.Is(err, ErrUnsolvable) {
		t.Error("unsolvableError must match ErrUnsolvable")
	}
	if !errors.Is(err, errNumeric) {
		t.Error("unsolvableError must preserve the engine failure cause")
	}
	if !strings.Contains(err.Error(), "2 rows") {
		t.Errorf("message should name the problem size, got %q", err.Error())
	}
}
