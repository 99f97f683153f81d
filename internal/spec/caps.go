package spec

import (
	"fmt"
	"strings"

	"github.com/isasgd/isasgd/internal/model"
)

// Algo is one algorithm's row of the capability table: what the
// algorithm is and which kinds, precisions and features it runs with.
type Algo struct {
	Name     string
	Async    bool // runs concurrent workers
	Weighted bool // importance-sampled: takes importance "grad"
	// Engine marks the single-sample core.Engine algorithms: they stream
	// (KindStream), train at f32 and take the adaptive knobs. The
	// SVRG/SAGA solvers run dense float64 correction passes and do none
	// of these.
	Engine bool
}

// algos is the capability table, in solver.Algo order.
var algos = []Algo{
	{Name: "sgd", Engine: true},
	{Name: "is-sgd", Weighted: true, Engine: true},
	{Name: "asgd", Async: true, Engine: true},
	{Name: "is-asgd", Async: true, Weighted: true, Engine: true},
	{Name: "svrg-sgd"},
	{Name: "svrg-asgd", Async: true},
	{Name: "saga"},
}

// LookupAlgo is the one algorithm-name lookup: case-insensitive, with
// '_' or '-', surrounding space ignored.
func LookupAlgo(name string) (Algo, error) {
	key := strings.ToLower(strings.ReplaceAll(strings.TrimSpace(name), "_", "-"))
	for _, a := range algos {
		if a.Name == key {
			return a, nil
		}
	}
	return Algo{}, fmt.Errorf("unknown algorithm %q", name)
}

// Check is the capability table's verdict on running algo as kind at
// precision prec, with the adaptive knobs on or off and the given
// importance mode. It is the only source of "not supported"
// errors; solver.Train and stream.NewTrainer call it too.
func Check(algo, kind, prec string, adaptive bool, importance string) error {
	a, err := LookupAlgo(algo)
	if err != nil {
		return err
	}
	switch {
	case kind == KindStream && !a.Engine:
		return fmt.Errorf("algo %s is not supported for kind stream (want sgd, is-sgd, asgd or is-asgd)", a.Name)
	case prec == model.PrecisionF32 && !a.Engine:
		return fmt.Errorf("precision f32 is not supported for %s (dense correction passes are float64-only)", a.Name)
	case adaptive && !a.Engine:
		return fmt.Errorf("adaptive knobs are not supported for %s", a.Name)
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
			return fmt.Errorf("%s does not apply to kind %s", k.name, kind)
		}
	}
	return nil
}
