package experiments

import "fmt"

// Fig1Row is one Table-1 preset's Figure-1 count: an index-compressed
// sparse update touches the row's non-zeros, MeanNNZ of them on
// average, while the dense true-gradient µ that SVRG adds on every
// update touches all Dim coordinates.
type Fig1Row struct {
	Dataset string
	Dim     int
	MeanNNZ float64
	Ratio   float64 // Dim / MeanNNZ
	Paper   float64 // the paper's order for the analogous dataset, 1/sparsity
}

// Fig1Result is the count table, one row per preset.
type Fig1Result struct {
	Rows []Fig1Row
}

// Fig1 regenerates the Figure-1 argument as an exact count: the
// coordinates a dense µ update touches against those a sparse update
// touches, per preset. The paper's claim is that the dense add is "five
// to seven magnitudes larger"; on the scaled analogs the ratio is
// d/nnz. The count is the cost's magnitude, not a timing; time per
// update is bench/'s.
func (r *Runner) Fig1() (*Fig1Result, error) {
	r.section("Figure 1: index-compressed vs dense update size (coordinates touched)")
	res := &Fig1Result{}
	var rows [][]string
	for i, cfg := range r.presets() {
		d, err := r.Dataset(cfg.Name)
		if err != nil {
			return nil, err
		}
		row := Fig1Row{
			Dataset: cfg.Name,
			Dim:     d.Dim(),
			MeanNNZ: float64(d.X.NNZ()) / float64(d.N()),
			Paper:   1 / PaperTable1[i].Sparsity,
		}
		row.Ratio = float64(row.Dim) / row.MeanNNZ
		res.Rows = append(res.Rows, row)
		rows = append(rows, []string{
			row.Dataset,
			fmt.Sprintf("%d", row.Dim),
			fmt.Sprintf("%.2f", row.MeanNNZ),
			fmt.Sprintf("%.0fx", row.Ratio),
			fmt.Sprintf("(paper: %s %.0e)", PaperTable1[i].Name, row.Paper),
		})
	}
	r.table([]string{"dataset", "dense µ update (d)", "sparse update (mean nnz)", "dense/sparse", "Reference"}, rows)
	return res, nil
}
