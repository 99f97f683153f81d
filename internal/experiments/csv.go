package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"

	"github.com/isasgd/isasgd/internal/metrics"
)

// The Write*CSV emitters render the reproduction artifacts (Table 1,
// Figures 1–2, convergence curves) in stable long-form CSV. Column order
// and number formatting are part of the contract — downstream analysis
// notebooks and the golden-file tests both depend on them — so format
// changes must update testdata/*.golden deliberately (go test
// -run Golden -update).

// WriteCurvesCSV exports convergence curves in long form:
// dataset,run,epoch,iters,wall_seconds,obj,rmse,err_rate,best_err.
// Rows are ordered by run key then epoch so the output is deterministic.
func WriteCurvesCSV(w io.Writer, dataset string, curves map[RunKey]metrics.Curve) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"dataset", "run", "epoch", "iters", "wall_seconds", "obj", "rmse", "err_rate", "best_err",
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
				fmt.Sprintf("%.6f", p.Wall.Seconds()),
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

// WriteFig1CSV exports the Figure-1 sparse-vs-dense cost table:
// dim,nnz,sparse_ns,dense_ns,ratio.
func WriteFig1CSV(w io.Writer, res *Fig1Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"dim", "nnz", "sparse_ns", "dense_ns", "ratio"}); err != nil {
		return err
	}
	for _, p := range res.Points {
		rec := []string{
			fmt.Sprintf("%d", p.Dim),
			fmt.Sprintf("%d", p.NNZ),
			fmt.Sprintf("%.1f", p.SparseNs),
			fmt.Sprintf("%.1f", p.DenseNs),
			fmt.Sprintf("%.1f", p.Ratio),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFig2CSV exports the Section-2.3 worked example in long form:
// sample,l,global_p,naive_local_p,balanced_local_p.
func WriteFig2CSV(w io.Writer, res *Fig2Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"sample", "l", "global_p", "naive_local_p", "balanced_local_p"}); err != nil {
		return err
	}
	for i, li := range res.L {
		rec := []string{
			fmt.Sprintf("x%d", i+1),
			fmt.Sprintf("%g", li),
			fmt.Sprintf("%.6f", res.GlobalP[i]),
			fmt.Sprintf("%.6f", localProb(res.NaiveShards, res.L, i)),
			fmt.Sprintf("%.6f", localProb(res.BalShards, res.L, i)),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTable1CSV exports the dataset-statistics table with the paper's
// reference values alongside the measured columns:
// dataset,dim,n,density,psi,rho,balanced,paper_name,paper_psi,paper_rho.
func WriteTable1CSV(w io.Writer, res *Table1Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"dataset", "dim", "n", "density", "psi", "rho", "balanced",
		"paper_name", "paper_psi", "paper_rho",
	}); err != nil {
		return err
	}
	for _, row := range res.Rows {
		s := row.Stats
		rec := []string{
			s.Name,
			fmt.Sprintf("%d", s.Dim),
			fmt.Sprintf("%d", s.N),
			fmt.Sprintf("%.3e", s.Density),
			fmt.Sprintf("%.6f", s.Psi),
			fmt.Sprintf("%.3e", s.Rho),
			fmt.Sprintf("%v", s.Balanced),
			row.Paper.Name,
			fmt.Sprintf("%.3f", row.Paper.Psi),
			fmt.Sprintf("%.0e", row.Paper.Rho),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
