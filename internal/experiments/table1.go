package experiments

import (
	"fmt"

	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/objective"
)

// Table1Row pairs a measured dataset signature with the paper's
// reference values for the analogous real dataset.
type Table1Row struct {
	Stats dataset.Stats
	Paper PaperDataset
}

// PaperDataset is a row of the paper's Table 1.
type PaperDataset struct {
	Name      string
	Dimension int
	Instances int
	Sparsity  float64 // ∇f_i sparsity order
	Psi       float64
	Rho       float64
	Source    string
}

// PaperTable1 is the paper's Table 1, verbatim.
var PaperTable1 = []PaperDataset{
	{Name: "News20", Dimension: 1_355_191, Instances: 19_996, Sparsity: 1e-3, Psi: 0.972, Rho: 5e-4, Source: "JMLR"},
	{Name: "URL", Dimension: 3_231_961, Instances: 2_396_130, Sparsity: 1e-5, Psi: 0.964, Rho: 3e-4, Source: "ICML"},
	{Name: "Algebra", Dimension: 20_216_830, Instances: 8_407_752, Sparsity: 1e-7, Psi: 0.892, Rho: 1e-4, Source: "KDD"},
	{Name: "Bridge", Dimension: 29_890_095, Instances: 19_264_097, Sparsity: 1e-7, Psi: 0.877, Rho: 2e-4, Source: "KDD"},
}

// Table1Result holds one row per preset, in paper order.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 regenerates Table 1: synthesize each preset, compute the
// statistics columns, and print measured-vs-paper rows.
func (r *Runner) Table1() (*Table1Result, error) {
	r.section("Table 1: Evaluation Datasets (synthetic analogs)")
	obj := r.Objective()
	res := &Table1Result{}
	var rows [][]string
	for i, cfg := range r.presets() {
		d, err := r.Dataset(cfg.Name)
		if err != nil {
			return nil, err
		}
		l := objective.Weights(d.X, obj)
		s := dataset.ComputeStats(d, l)
		res.Rows = append(res.Rows, Table1Row{Stats: s, Paper: PaperTable1[i]})
		rows = append(rows, []string{
			s.Name,
			fmt.Sprintf("%d", s.Dim),
			fmt.Sprintf("%d", s.N),
			fmt.Sprintf("%.1e", s.Density),
			fmt.Sprintf("%.3f", s.Psi),
			fmt.Sprintf("%.1e", s.Rho),
			boolWord(s.Balanced, "balance", "shuffle"),
			fmt.Sprintf("(paper: %s %.3f / %.0e)", PaperTable1[i].Name, PaperTable1[i].Psi, PaperTable1[i].Rho),
		})
	}
	r.table([]string{"Name", "Dimension", "Instances", "∇fi-Spa.", "ψ", "ρ", "Alg4", "Reference"}, rows)
	return res, nil
}

func boolWord(b bool, yes, no string) string {
	if b {
		return yes
	}
	return no
}
