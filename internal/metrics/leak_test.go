package metrics

import (
	"testing"

	"github.com/isasgd/isasgd/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }
