// Package obstest holds what the tests of the telemetry layer share:
// Lint, a format check of the Prometheus text exposition that
// obs.Registry writes. Only tests import it.
package obstest

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
)

// The exposition format's metric and label name rules, checked
// independently of the registry's own validation.
var (
	metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelName  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Lint parses a Prometheus text exposition and returns the first format
// violation found, or nil when the input is scrape-clean. Checks:
//
//   - every sample line parses (metric name, optional escaped label
//     block, float value);
//   - every sample belongs to a family announced by a # TYPE line
//     earlier in the stream (summary _sum/_count suffixes resolve to
//     their base family);
//   - every # TYPE is preceded by a # HELP for the same family, carries
//     a known type, and no family is typed twice.
//
// It is intentionally a linter, not a full parser: it validates the
// format the repo's own tests and CI scrape, without modelling
// timestamps or exemplars (which this registry never emits).
func Lint(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	typed := make(map[string]string) // family -> type
	helped := make(map[string]bool)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if err := lintComment(text, typed, helped); err != nil {
				return fmt.Errorf("line %d: %w", line, err)
			}
			continue
		}
		if err := lintSample(text, typed); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return nil
}

func lintComment(text string, typed map[string]string, helped map[string]bool) error {
	fields := strings.SplitN(text, " ", 4)
	if len(fields) < 3 {
		return fmt.Errorf("malformed comment %q", text)
	}
	switch fields[1] {
	case "HELP":
		if !metricName.MatchString(fields[2]) {
			return fmt.Errorf("HELP for invalid metric name %q", fields[2])
		}
		helped[fields[2]] = true
	case "TYPE":
		if len(fields) < 4 {
			return fmt.Errorf("TYPE line %q missing type", text)
		}
		name, typ := fields[2], fields[3]
		if !metricName.MatchString(name) {
			return fmt.Errorf("TYPE for invalid metric name %q", name)
		}
		switch typ {
		case "counter", "gauge", "summary", "histogram", "untyped":
		default:
			return fmt.Errorf("unknown type %q for %q", typ, name)
		}
		if _, dup := typed[name]; dup {
			return fmt.Errorf("family %q typed twice", name)
		}
		if !helped[name] {
			return fmt.Errorf("family %q has TYPE before HELP", name)
		}
		typed[name] = typ
	default:
		return fmt.Errorf("unknown comment directive %q", fields[1])
	}
	return nil
}

func lintSample(text string, typed map[string]string) error {
	name, rest, err := splitName(text)
	if err != nil {
		return err
	}
	fam, ok := sampleFamily(name, typed)
	if !ok {
		return fmt.Errorf("sample %q has no preceding # TYPE", name)
	}
	_ = fam
	if strings.HasPrefix(rest, "{") {
		if rest, err = lintLabels(rest); err != nil {
			return fmt.Errorf("sample %q: %w", name, err)
		}
	}
	rest = strings.TrimLeft(rest, " ")
	if rest == "" {
		return fmt.Errorf("sample %q has no value", name)
	}
	// Value (timestamps are not emitted by this registry; reject extras).
	if strings.ContainsRune(rest, ' ') {
		return fmt.Errorf("sample %q has trailing fields %q", name, rest)
	}
	if _, err := strconv.ParseFloat(rest, 64); err != nil {
		return fmt.Errorf("sample %q has bad value %q", name, rest)
	}
	return nil
}

// splitName splits a sample line into metric name and remainder.
func splitName(text string) (name, rest string, err error) {
	i := strings.IndexAny(text, "{ ")
	if i < 0 {
		return "", "", fmt.Errorf("malformed sample %q", text)
	}
	name = text[:i]
	if !metricName.MatchString(name) {
		return "", "", fmt.Errorf("invalid metric name %q", name)
	}
	return name, text[i:], nil
}

// sampleFamily resolves a sample name to its announced family,
// accepting summary/histogram child suffixes.
func sampleFamily(name string, typed map[string]string) (string, bool) {
	if _, ok := typed[name]; ok {
		return name, true
	}
	for _, suf := range []string{"_sum", "_count", "_bucket"} {
		base := strings.TrimSuffix(name, suf)
		if base == name {
			continue
		}
		if t, ok := typed[base]; ok && (t == "summary" || t == "histogram") {
			return base, true
		}
	}
	return "", false
}

// lintLabels validates a `{a="v",...}` block and returns the remainder
// after the closing brace.
func lintLabels(s string) (rest string, err error) {
	s = s[1:] // consume '{'
	for {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return "", fmt.Errorf("label block missing '='")
		}
		lname := s[:eq]
		if lname != "quantile" && lname != "le" && !labelName.MatchString(lname) {
			return "", fmt.Errorf("invalid label name %q", lname)
		}
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return "", fmt.Errorf("label %q value not quoted", lname)
		}
		s = s[1:]
		// Scan the escaped value.
		for {
			if len(s) == 0 {
				return "", fmt.Errorf("label %q value unterminated", lname)
			}
			switch s[0] {
			case '\\':
				if len(s) < 2 || !strings.ContainsRune(`\"n`, rune(s[1])) {
					return "", fmt.Errorf("label %q has bad escape", lname)
				}
				s = s[2:]
			case '"':
				s = s[1:]
				goto closed
			case '\n':
				return "", fmt.Errorf("label %q value contains raw newline", lname)
			default:
				s = s[1:]
			}
		}
	closed:
		if len(s) == 0 {
			return "", fmt.Errorf("label block unterminated")
		}
		switch s[0] {
		case ',':
			s = s[1:]
		case '}':
			return s[1:], nil
		default:
			return "", fmt.Errorf("unexpected %q after label value", s[0])
		}
	}
}
