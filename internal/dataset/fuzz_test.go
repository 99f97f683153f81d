package dataset

import (
	"strings"
	"testing"
)

// FuzzParseLibSVM exercises the LibSVM parser with arbitrary input. The
// invariants: it never panics, and whatever it accepts must survive a
// write/parse round trip with identical shape.
func FuzzParseLibSVM(f *testing.F) {
	seeds := []string{
		"",
		"+1 1:0.5 3:1.5\n-1 2:2\n",
		"1 1:1e300\n",
		"# comment only\n",
		"1\n",
		"-1 7:0\n",
		"1 1:0.5 1:0.5\n",       // duplicate index: must error
		"1 2:1 1:1\n",           // decreasing: must error
		"nan 1:1\n",             // NaN label: rejected at line level
		"1 999999999999999:1\n", // index overflow
		"1 1:x\n",               // bad value
		strings.Repeat("1 1:1 2:2 3:3\n", 50),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		// The extracted line parser (shared with the chunked streaming
		// reader) must never panic and must agree with the whole-file
		// parser on which inputs are rejected at line level.
		// bufio.Scanner trims a trailing \r that strings.Split keeps, so
		// the agreement check only applies to \r-free inputs.
		crossCheck := !strings.Contains(input, "\r")
		lineErr := false
		lineNo := 0
		for _, line := range strings.Split(input, "\n") {
			lineNo++
			if _, _, _, _, err := AppendLibSVMLine("fuzz", lineNo, []byte(line), nil, nil); err != nil {
				lineErr = true
				break
			}
		}
		d, err := ParseLibSVM(strings.NewReader(input), "fuzz", 0)
		if err != nil {
			if crossCheck && !lineErr && !strings.Contains(err.Error(), "dataset") {
				// Whole-file rejections are line-level errors or
				// dataset-level Validate errors; nothing else.
				t.Fatalf("ParseLibSVM rejected input every line of which parses: %v", err)
			}
			return // rejecting is fine; panicking is not
		}
		if crossCheck && lineErr {
			t.Fatal("ParseLibSVM accepted input with a line AppendLibSVMLine rejects")
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("parser accepted data that fails Validate: %v", err)
		}
		var sb strings.Builder
		if err := WriteLibSVM(&sb, d); err != nil {
			t.Fatalf("WriteLibSVM on accepted data: %v", err)
		}
		back, err := ParseLibSVM(strings.NewReader(sb.String()), "fuzz2", d.Dim())
		if err != nil {
			t.Fatalf("round-trip parse failed: %v", err)
		}
		if back.N() != d.N() {
			t.Fatalf("round trip changed N: %d -> %d", d.N(), back.N())
		}
		if int64(back.X.NNZ()) != int64(d.X.NNZ()) {
			t.Fatalf("round trip changed NNZ: %d -> %d", d.X.NNZ(), back.X.NNZ())
		}
	})
}
