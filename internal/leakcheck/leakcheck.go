// Package leakcheck fails a test binary whose tests leave goroutines
// running. Install it as the package's TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// After the tests pass, Main dumps every goroutine (runtime.Stack) and
// looks for survivors: goroutines with a frame in this module, or in
// net/http. The second catches a server or connection a test left open;
// an httptest.Server's own goroutines have no frame of ours. Goroutines
// that are merely winding down get up to two seconds to exit before the
// binary fails with their stacks.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// owners are the frame prefixes that make a surviving goroutine a leak.
var owners = []string{"github.com/isasgd/isasgd/", "net/http"}

// Main runs m's tests and exits with their code, or with 1 if they
// passed but left goroutines behind.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if left := survivors(2 * time.Second); left != nil {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutine(s) outlived the tests:\n\n%s\n",
				len(left), strings.Join(left, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// survivors polls the goroutine dump until no leak is left or wait runs
// out, and returns the stacks of what is left.
func survivors(wait time.Duration) []string {
	deadline := time.Now().Add(wait)
	for {
		left := leaks(dump())
		if left == nil || time.Now().After(deadline) {
			return left
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// dump returns every goroutine's stack. The first is the caller's own.
func dump() []string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Split(string(buf[:n]), "\n\n")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// leaks keeps the stacks, past the first, that name an owner.
func leaks(stacks []string) []string {
	var out []string
	for _, g := range stacks[1:] {
		for _, o := range owners {
			if strings.Contains(g, o) {
				out = append(out, g)
				break
			}
		}
	}
	return out
}
