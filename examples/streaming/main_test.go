package main

import "testing"

// TestExampleRuns is the example's smoke test: it runs the example,
// which streams the skewed corpus through the trainer twice, with online
// importance sampling and uniformly, and scores both, and fails on any
// error, so that go test ./... keeps the example working.
func TestExampleRuns(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
