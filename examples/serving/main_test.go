package main

import "testing"

// TestExampleRuns is the example's smoke test: it runs the example,
// which starts the service in-process, trains a model through it, scores
// instances and shuts it down, and fails on any error, so that go test
// ./... keeps the example working.
func TestExampleRuns(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
