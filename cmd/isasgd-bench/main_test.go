package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestUnknownExperimentRejected checks that a name outside the valid
// set fails before anything runs, and that the error lists the valid
// names.
func TestUnknownExperimentRejected(t *testing.T) {
	// "tabel1" is a typo; the others are experiments that no longer
	// exist and must not pass as an empty run, alone or in a list.
	for _, name := range []string{
		"tabel1",
		"kernels", "serving", "precision", "cluster", "fleet", "adaptive",
		"table1,fleet",
	} {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(context.Background(), []string{"-experiment", name, "-scale", "quick"}, &out)
			if err == nil {
				t.Fatalf("-experiment %s accepted; output:\n%s", name, out.String())
			}
			if !strings.Contains(err.Error(), "table1,fig1") {
				t.Errorf("-experiment %s: error %q does not list the valid names", name, err)
			}
			if out.Len() != 0 {
				t.Errorf("-experiment %s: ran something before rejecting:\n%s", name, out.String())
			}
		})
	}
}

// TestParseExperiments checks that every valid name is accepted and
// that names are matched case- and space-insensitively.
func TestParseExperiments(t *testing.T) {
	want, err := parseExperiments(strings.Join(experimentNames, ","))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(experimentNames) {
		t.Errorf("parsed %d names, want %d", len(want), len(experimentNames))
	}
	want, err = parseExperiments(" Table1 ,FIG1")
	if err != nil {
		t.Fatal(err)
	}
	if !want["table1"] || !want["fig1"] || len(want) != 2 {
		t.Errorf("parsed %v, want table1 and fig1", want)
	}
}

func TestTable1Quick(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-experiment", "table1", "-scale", "quick"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"scale=quick", "news20s"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestVersion(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-version"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "isasgd-bench ") {
		t.Errorf("version output %q", out.String())
	}
}
