package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"

	"github.com/isasgd/isasgd/internal/metrics"
)

// WriteCurvesCSV exports convergence curves in stable long form:
// dataset,run,epoch,iters,obj,rmse,err_rate,best_err. Rows are ordered
// by run key then epoch so the output is deterministic. Column order
// and number formatting are a contract that testdata/curves.golden
// pins (go test -run Golden -update ./internal/experiments/ rewrites
// it after a deliberate change).
func WriteCurvesCSV(w io.Writer, dataset string, curves map[RunKey]metrics.Curve) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"dataset", "run", "epoch", "iters", "obj", "rmse", "err_rate", "best_err",
	}); err != nil {
		return err
	}
	keys := make([]RunKey, 0, len(curves))
	for k := range curves {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Algo != keys[j].Algo {
			return keys[i].Algo < keys[j].Algo
		}
		return keys[i].Threads < keys[j].Threads
	})
	for _, k := range keys {
		for _, p := range curves[k] {
			rec := []string{
				dataset,
				k.String(),
				fmt.Sprintf("%d", p.Epoch),
				fmt.Sprintf("%d", p.Iters),
				fmt.Sprintf("%.8f", p.Obj),
				fmt.Sprintf("%.8f", p.RMSE),
				fmt.Sprintf("%.8f", p.ErrRate),
				fmt.Sprintf("%.8f", p.BestErr),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
