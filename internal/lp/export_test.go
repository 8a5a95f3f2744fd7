package lp

// SolveDenseReference exposes the test-only dense tableau reference
// (reference_test.go) to the external lp_test package.
var SolveDenseReference = solveDense
