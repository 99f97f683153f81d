package main

import (
	"testing"

	"github.com/isasgd/isasgd/internal/dataset"
)

// TestPresetConfig checks that every preset datagen documents, in both
// spellings, resolves through the one preset lookup to a valid config.
func TestPresetConfig(t *testing.T) {
	for _, name := range []string{"news20", "url", "kdda", "kddb", "small", "news20s", "urls", "kddas", "kddbs"} {
		cfg, err := dataset.Preset(name, 0.1, 7)
		if err != nil {
			t.Fatalf("preset %q: %v", name, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("preset %q invalid: %v", name, err)
		}
	}
	if _, err := dataset.Preset("bogus", 1, 1); err == nil {
		t.Fatal("unknown preset accepted")
	}
}
