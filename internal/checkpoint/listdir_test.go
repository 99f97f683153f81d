package checkpoint

import (
	"os"
	"path/filepath"
	"testing"
)

func TestListDir(t *testing.T) {
	dir := t.TempDir()
	// Missing directory: empty, no error.
	if got, err := ListDir(filepath.Join(dir, "nope")); err != nil || len(got) != 0 {
		t.Fatalf("ListDir(missing) = %v, %v; want empty, nil", got, err)
	}

	st := &State{Algo: "sgd", Weights: []float64{1, 2}}
	for _, name := range []string{"b.ckpt", "a.ckpt"} {
		if err := SaveFile(filepath.Join(dir, name), st); err != nil {
			t.Fatal(err)
		}
	}
	// Noise that must be skipped: wrong extension and a subdirectory.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "sub.ckpt"), 0o755); err != nil {
		t.Fatal(err)
	}

	got, err := ListDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{filepath.Join(dir, "a.ckpt"), filepath.Join(dir, "b.ckpt")}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("ListDir = %v, want %v", got, want)
	}
	if st2, err := LoadFile(got[0]); err != nil || st2.Algo != "sgd" {
		t.Fatalf("LoadFile(%s) = %+v, %v", got[0], st2, err)
	}
}
