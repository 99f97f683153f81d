package spec

import (
	"fmt"
	"strings"
)

// Algo is one algorithm's row of the capability table: what the
// algorithm is and which kinds and features it runs with. Every
// algorithm trains at either precision.
type Algo struct {
	Name     string
	Async    bool // runs concurrent workers
	Weighted bool // importance-sampled: takes importance "grad"
	// Plain marks the plain single-sample updates: they stream
	// (KindStream) and take dc_lambda. SVRG's update reads the anchors
	// of its epoch's full pass, which a stream window never makes, and
	// takes no delay compensation.
	Plain bool
}

// algos is the capability table, in core.Algo order.
var algos = []Algo{
	{Name: "sgd", Plain: true},
	{Name: "is-sgd", Weighted: true, Plain: true},
	{Name: "asgd", Async: true, Plain: true},
	{Name: "is-asgd", Async: true, Weighted: true, Plain: true},
	{Name: "svrg-sgd"},
	{Name: "svrg-asgd", Async: true},
}

// LookupAlgo is the one algorithm-name lookup: case-insensitive, with
// '_' or '-', surrounding space ignored. An unknown name's error lists
// the valid ones.
func LookupAlgo(name string) (Algo, error) {
	key := strings.ToLower(strings.ReplaceAll(strings.TrimSpace(name), "_", "-"))
	names := make([]string, 0, len(algos))
	for _, a := range algos {
		if a.Name == key {
			return a, nil
		}
		names = append(names, a.Name)
	}
	return Algo{}, fmt.Errorf("unknown algorithm %q (want %s)", name, strings.Join(names, ", "))
}

// Check is the capability table's verdict on running algo as kind, with
// delay compensation on or off and the given importance mode. It is the
// only source of "not supported" errors; core.Train and
// stream.NewTrainer call it too.
func Check(algo, kind string, dc bool, importance string) error {
	a, err := LookupAlgo(algo)
	if err != nil {
		return err
	}
	switch {
	case kind == KindStream && !a.Plain:
		return fmt.Errorf("algo %s is not supported for kind stream (want sgd, is-sgd, asgd or is-asgd)", a.Name)
	case dc && !a.Plain:
		return fmt.Errorf("dc_lambda is not supported for %s", a.Name)
	}
	switch importance {
	case "", "bound":
	case "grad":
		if !a.Weighted {
			return fmt.Errorf("importance grad is not supported for %s (uniform draws ignore weights; want is-sgd or is-asgd)", a.Name)
		}
	default:
		return fmt.Errorf("unknown importance %q (want bound or grad)", importance)
	}
	return nil
}

// checkKnobs rejects an unknown kind and every set knob the kind does
// not have (the knob table's kinds column).
func checkKnobs(s *Spec, kind string) error {
	switch kind {
	case KindBatch, KindStream, KindCluster:
	default:
		return fmt.Errorf("unknown kind %q (want batch, stream or cluster)", kind)
	}
	for _, k := range knobs {
		if !k.applies(kind) && !k.value(s).IsZero() {
			return fmt.Errorf("%s does not apply to kind %s (only to %s)", k.name, kind, strings.Join(k.kinds, ", "))
		}
	}
	return nil
}
