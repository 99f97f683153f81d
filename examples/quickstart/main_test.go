package main

import "testing"

// TestExampleRuns is the example's smoke test: it runs the example,
// which trains IS-ASGD on the Small preset and prints its curve, and
// fails on any error, so that go test ./... keeps the example working.
func TestExampleRuns(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
