package experiments

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"testing"

	"github.com/isasgd/isasgd/internal/balance"
	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/xrand"
)

// inflationRow is one corpus at one worker count K: the IS second-moment
// inflation K·ΣΦ_a²/(ΣΦ_a)² of Algorithm 3's head–tail order and the
// worst of ten seeded shuffles (seeds 1–10), each cut into K contiguous
// shards, with the Φ imbalance (max−min)/mean beside each.
type inflationRow struct {
	corpus               string
	n, k                 int
	rho                  float64
	headTail, headTailIm float64
	shuffle, shuffleIm   float64
}

func (r inflationRow) String() string {
	return fmt.Sprintf("%-8s %7d  %d  %6.2f  %9.6f  %8.5f  %9.6f  %8.5f",
		r.corpus, r.n, r.k, r.rho/balance.DefaultZeta, r.headTail, r.headTailIm, r.shuffle, r.shuffleIm)
}

const inflationHeader = "corpus         n  K   ρ/ζ  head–tail  (imbal)  shuffle≤  (imbal)"

// inflationRows measures each config's corpus under obj at K = 2 and 4.
func inflationRows(t *testing.T, obj objective.Objective, cfgs []dataset.SynthConfig) []inflationRow {
	t.Helper()
	var rows []inflationRow
	for _, cfg := range cfgs {
		d, err := dataset.Synthesize(cfg)
		if err != nil {
			t.Fatal(err)
		}
		l := objective.Weights(d.X, obj)
		for _, k := range []int{2, 4} {
			phis := balance.ImportanceSums(balance.Split(balance.HeadTail(l), k), l)
			row := inflationRow{corpus: cfg.Name, n: d.N(), k: k, rho: balance.Rho(l),
				headTail: balance.Inflation(phis), headTailIm: balance.Imbalance(phis)}
			for seed := uint64(1); seed <= 10; seed++ {
				phis := balance.ImportanceSums(balance.Split(xrand.New(seed).Perm(d.N()), k), l)
				row.shuffle = max(row.shuffle, balance.Inflation(phis))
				row.shuffleIm = max(row.shuffleIm, balance.Imbalance(phis))
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// checkShuffleWins logs the table and fails on any row where the worst
// shuffle inflates the second moment more than head–tail or by more
// than 1 %: the finding that made the shuffle the runtime plan.
func checkShuffleWins(t *testing.T, rows []inflationRow) {
	t.Helper()
	lines := []string{inflationHeader}
	for _, r := range rows {
		lines = append(lines, r.String())
		if r.shuffle > r.headTail || r.shuffle > 1.01 {
			t.Errorf("%s at K = %d: worst shuffle inflation %.6f, head–tail %.6f", r.corpus, r.k, r.shuffle, r.headTail)
		}
	}
	t.Log("\n" + strings.Join(lines, "\n"))
}

// TestShuffleInflationAtMostHeadTail pins the finding on the quick
// presets at seed 1 and on the balancing ablation's skewed corpus.
func TestShuffleInflationAtMostHeadTail(t *testing.T) {
	r := NewRunner(io.Discard, Quick(), 1)
	checkShuffleWins(t, inflationRows(t, r.Objective(), append(r.presets(), r.skewedCorpus())))
}

// benchCorpora opts in to TestShuffleInflationBenchCorpora.
var benchCorpora = flag.Bool("bench-corpora", false, "also measure the shard inflation on the benchmark's training corpora")

// TestShuffleInflationBenchCorpora is the same measurement on the
// benchmark's two training corpora under its objective (bench/train.go):
// batch_sparse's kdda analog at full size and batch_dense's news20
// analog at 100 000 rows. Synthesizing them takes seconds, so it runs
// only under -bench-corpora; results/8f2ab68/inflation.txt holds both
// tables, the output of
//
//	go test -count 1 -run TestShuffleInflation -v ./internal/experiments/ -bench-corpora
func TestShuffleInflationBenchCorpora(t *testing.T) {
	if !*benchCorpora {
		t.Skip("the benchmark corpora take seconds to synthesize; run with -bench-corpora")
	}
	sparse := dataset.KDDALike(1.0, 20180813)
	dense := dataset.News20Like(1.0, 20180813)
	sparse.Name, dense.Name, dense.N = "sparse", "dense", 100000
	checkShuffleWins(t, inflationRows(t, objective.LogisticL1{Eta: 1e-5}, []dataset.SynthConfig{sparse, dense}))
}
