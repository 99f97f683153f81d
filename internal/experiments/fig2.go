package experiments

import (
	"fmt"

	"github.com/isasgd/isasgd/internal/balance"
)

// Fig2Result captures the Section-2.3 worked example: global sampling
// probabilities versus the per-node probabilities under a naive split
// and under importance balancing.
type Fig2Result struct {
	L            []float64
	GlobalP      []float64
	NaiveShards  [][]int
	NaivePhi     []float64
	BalShards    [][]int
	BalPhi       []float64
	NaiveImbal   float64
	BalImbalance float64
}

// Fig2 reproduces the paper's Figure-2/Section-2.3 example: four samples
// with Lipschitz constants {1,2,3,4} on two nodes. A sequential split
// puts {x1,x2} / {x3,x4}, distorting local probabilities (p4 becomes
// smaller than p2 although globally p4 = 2·p2); the head–tail balanced
// split {x1,x4} / {x2,x3} restores Φ-equality and the global ordering.
func (r *Runner) Fig2() (*Fig2Result, error) {
	r.section("Figure 2: importance balancing worked example (Sec. 2.3)")
	l := []float64{1, 2, 3, 4}
	sumL := 10.0

	res := &Fig2Result{L: l}
	for _, li := range l {
		res.GlobalP = append(res.GlobalP, li/sumL)
	}

	// Naive sequential split (the paper's "local-data-training").
	res.NaiveShards = [][]int{{0, 1}, {2, 3}}
	res.NaivePhi = balance.ImportanceSums(res.NaiveShards, l)
	res.NaiveImbal = balance.Imbalance(res.NaivePhi)

	// Head–tail balancing (Algorithm 3) + contiguous split.
	res.BalShards = balance.Split(balance.HeadTail(l), 2)
	res.BalPhi = balance.ImportanceSums(res.BalShards, l)
	res.BalImbalance = balance.Imbalance(res.BalPhi)

	var rows [][]string
	for i, li := range l {
		naive := localProb(res.NaiveShards, l, i)
		bal := localProb(res.BalShards, l, i)
		rows = append(rows, []string{
			fmt.Sprintf("x%d", i+1),
			fmt.Sprintf("%g", li),
			fmt.Sprintf("%.2f", res.GlobalP[i]),
			fmt.Sprintf("%.2f", naive),
			fmt.Sprintf("%.2f", bal),
		})
	}
	r.table([]string{"sample", "L_i", "global p_i (IS-SGD)", "naive-split local p", "balanced local p"}, rows)
	r.printf("naive split Φ = %v (imbalance %.2f); balanced Φ = %v (imbalance %.2f)\n",
		res.NaivePhi, res.NaiveImbal, res.BalPhi, res.BalImbalance)
	r.printf("paper's distortion: naive makes p4 (%.2f) < p2 (%.2f) although globally p4 = 2·p2\n",
		localProb(res.NaiveShards, l, 3), localProb(res.NaiveShards, l, 1))
	return res, nil
}

// localProb returns sample i's sampling probability within its shard.
func localProb(shards [][]int, l []float64, i int) float64 {
	for _, shard := range shards {
		phi := 0.0
		found := false
		for _, j := range shard {
			phi += l[j]
			if j == i {
				found = true
			}
		}
		if found {
			return l[i] / phi
		}
	}
	return 0
}
