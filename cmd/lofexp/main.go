// Command lofexp regenerates the tables and figures of the LOF paper's
// evaluation. Each experiment prints the rows or series the corresponding
// figure plots.
//
// Usage:
//
//	lofexp -exp all
//	lofexp -exp ds1,fig7,soccer -seed 42
//	lofexp -exp fig7 -stats
//	lofexp -list
//
// With -stats, each experiment runs under a pipeline tracer and is
// followed by a per-phase timing and counter breakdown of all the fits it
// performed.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"lof/internal/exp"
	"lof/internal/obs"
)

// experiment is one runnable experiment producing printable tables.
type experiment struct {
	name string
	desc string
	run  func(seed int64, quick bool) ([]*exp.Table, error)
}

func experiments() []experiment {
	return []experiment{
		{"ds1", "figure 1 / section 3: local outliers vs DB(pct,dmin) on DS1", func(seed int64, _ bool) ([]*exp.Table, error) {
			r, err := exp.RunDS1(seed)
			if err != nil {
				return nil, err
			}
			return []*exp.Table{r.Table()}, nil
		}},
		{"thm1", "figure 3: theorem 1 bounds for an object outside a cluster", func(seed int64, _ bool) ([]*exp.Table, error) {
			r, err := exp.RunThm1Demo(seed)
			if err != nil {
				return nil, err
			}
			return []*exp.Table{r.Table()}, nil
		}},
		{"fig4", "figure 4: analytic LOF bound spread vs direct/indirect", func(int64, bool) ([]*exp.Table, error) {
			return []*exp.Table{exp.RunFig4().Table()}, nil
		}},
		{"fig5", "figure 5: relative span vs fluctuation percentage", func(int64, bool) ([]*exp.Table, error) {
			return []*exp.Table{exp.RunFig5().Table()}, nil
		}},
		{"thm2", "figure 6: theorem 2 multi-cluster bounds", func(seed int64, _ bool) ([]*exp.Table, error) {
			r, err := exp.RunThm2Demo(seed)
			if err != nil {
				return nil, err
			}
			return []*exp.Table{r.Table()}, nil
		}},
		{"fig7", "figure 7: LOF fluctuation within a Gaussian cluster", func(seed int64, quick bool) ([]*exp.Table, error) {
			n := 1000
			if quick {
				n = 300
			}
			r, err := exp.RunFig7(seed, n)
			if err != nil {
				return nil, err
			}
			return []*exp.Table{r.Table()}, nil
		}},
		{"fig8", "figure 8: LOF over MinPts for three cluster sizes", func(seed int64, _ bool) ([]*exp.Table, error) {
			r, err := exp.RunFig8(seed)
			if err != nil {
				return nil, err
			}
			return []*exp.Table{r.Table()}, nil
		}},
		{"fig9", "figure 9: LOF surface of the four-cluster dataset", func(seed int64, _ bool) ([]*exp.Table, error) {
			r, err := exp.RunFig9(seed)
			if err != nil {
				return nil, err
			}
			return []*exp.Table{r.Table()}, nil
		}},
		{"hockey1", "section 7.2 test 1: points / plus-minus / penalty minutes", func(seed int64, _ bool) ([]*exp.Table, error) {
			r, err := exp.RunHockey(seed, 1)
			if err != nil {
				return nil, err
			}
			return []*exp.Table{r.Table(), exp.RankTable("documented outlier ranks", r.RankOf)}, nil
		}},
		{"hockey2", "section 7.2 test 2: games / goals / shooting percentage", func(seed int64, _ bool) ([]*exp.Table, error) {
			r, err := exp.RunHockey(seed, 2)
			if err != nil {
				return nil, err
			}
			return []*exp.Table{r.Table(), exp.RankTable("documented outlier ranks", r.RankOf)}, nil
		}},
		{"soccer", "table 3: Bundesliga 1998/99 outliers", func(seed int64, _ bool) ([]*exp.Table, error) {
			r, err := exp.RunSoccer(seed)
			if err != nil {
				return nil, err
			}
			return []*exp.Table{r.Table(), exp.RankTable("published outlier ranks", r.RankOf)}, nil
		}},
		{"highdim", "section 7: 64-d color histograms", func(seed int64, _ bool) ([]*exp.Table, error) {
			r, err := exp.RunHighDim(seed)
			if err != nil {
				return nil, err
			}
			return []*exp.Table{r.Table()}, nil
		}},
		{"fig10", "figure 10: materialization time vs n and dimension", func(seed int64, quick bool) ([]*exp.Table, error) {
			sizes := []int{2000, 5000, 10000, 20000, 40000}
			dims := []int{2, 5, 10, 20}
			if quick {
				sizes = []int{500, 1000}
				dims = []int{2, 10}
			}
			r, err := exp.RunFig10(seed, sizes, dims, "kdtree")
			if err != nil {
				return nil, err
			}
			return []*exp.Table{r.Table()}, nil
		}},
		{"fig11", "figure 11: LOF computation time vs n", func(seed int64, quick bool) ([]*exp.Table, error) {
			sizes := []int{2000, 5000, 10000, 20000, 40000}
			if quick {
				sizes = []int{500, 1000}
			}
			r, err := exp.RunFig11(seed, sizes)
			if err != nil {
				return nil, err
			}
			return []*exp.Table{r.Table()}, nil
		}},
		{"ablation-index", "ablation: index structures for materialization", func(seed int64, quick bool) ([]*exp.Table, error) {
			n := 8000
			if quick {
				n = 600
			}
			r, err := exp.RunAblationIndexes(seed, n, 5)
			if err != nil {
				return nil, err
			}
			return []*exp.Table{r.Table()}, nil
		}},
		{"ablation-mat", "ablation: two-step algorithm vs naive recomputation", func(seed int64, quick bool) ([]*exp.Table, error) {
			n := 3000
			if quick {
				n = 300
			}
			r, err := exp.RunAblationMaterialization(seed, n)
			if err != nil {
				return nil, err
			}
			return []*exp.Table{r.Table()}, nil
		}},
		{"ablation-reach", "ablation: reach-dist smoothing vs raw distances", func(seed int64, quick bool) ([]*exp.Table, error) {
			n := 2000
			if quick {
				n = 400
			}
			r, err := exp.RunAblationReach(seed, n)
			if err != nil {
				return nil, err
			}
			return []*exp.Table{r.Table()}, nil
		}},
		{"quality", "detection quality: LOF vs kNN-distance vs DB-count on local+global outliers", func(seed int64, _ bool) ([]*exp.Table, error) {
			r, err := exp.RunQuality(seed)
			if err != nil {
				return nil, err
			}
			return []*exp.Table{r.Table()}, nil
		}},
		{"noise-vs-lof", "DBSCAN binary noise vs LOF degrees on the figure 9 dataset", func(seed int64, _ bool) ([]*exp.Table, error) {
			r, err := exp.RunNoiseVsLOF(seed)
			if err != nil {
				return nil, err
			}
			return []*exp.Table{r.Table()}, nil
		}},
		{"ablation-agg", "ablation: max vs mean vs min aggregation", func(seed int64, _ bool) ([]*exp.Table, error) {
			r, err := exp.RunAblationAggregates(seed)
			if err != nil {
				return nil, err
			}
			return []*exp.Table{r.Table()}, nil
		}},
		{"approx", "approximate fast path: recall@n vs speedup (pruning + coresets)", func(seed int64, quick bool) ([]*exp.Table, error) {
			r, err := exp.RunApprox(seed, quick)
			if err != nil {
				return nil, err
			}
			return []*exp.Table{r.Table()}, nil
		}},
		{"approx-gate", "CI recall gate: fixed-seed synthetic, prints a parseable GATE line", func(seed int64, quick bool) ([]*exp.Table, error) {
			n := 20000
			if quick {
				n = 2000
			}
			r, err := exp.RunApproxGate(seed, n)
			if err != nil {
				return nil, err
			}
			// The trailing single-cell table renders the GATE line verbatim
			// for scripts/approx_gate.sh to grep.
			return []*exp.Table{r.Table(), {Rows: [][]string{{r.GateLine()}}}}, nil
		}},
	}
}

func main() {
	var (
		expFlag  = flag.String("exp", "all", "comma-separated experiment names, or 'all'")
		seed     = flag.Int64("seed", 42, "random seed for synthetic datasets")
		quick    = flag.Bool("quick", false, "reduced sizes for a fast smoke run")
		listOnly = flag.Bool("list", false, "list available experiments and exit")
		stats    = flag.Bool("stats", false, "print a pipeline phase/counter breakdown after each experiment")
	)
	flag.Parse()

	exps := experiments()
	if *listOnly {
		for _, e := range exps {
			fmt.Printf("%-16s %s\n", e.name, e.desc)
		}
		return
	}

	byName := map[string]experiment{}
	for _, e := range exps {
		byName[e.name] = e
	}
	var selected []experiment
	if *expFlag == "all" {
		selected = exps
	} else {
		for _, name := range strings.Split(*expFlag, ",") {
			name = strings.TrimSpace(name)
			e, ok := byName[name]
			if !ok {
				known := make([]string, 0, len(byName))
				for n := range byName {
					known = append(known, n)
				}
				sort.Strings(known)
				fmt.Fprintf(os.Stderr, "lofexp: unknown experiment %q; available: %s\n", name, strings.Join(known, ", "))
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	for _, e := range selected {
		tables, snap, err := runExperiment(e, *seed, *quick, *stats)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lofexp: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		for _, t := range tables {
			t.Fprint(os.Stdout)
			fmt.Println()
		}
		if snap != nil {
			fmt.Printf("## %s pipeline stats\n", e.name)
			if err := snap.WriteTable(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "lofexp: %s: %v\n", e.name, err)
				os.Exit(1)
			}
			fmt.Println()
		}
	}
}

// runExperiment runs one experiment, optionally under a fresh
// process-default tracer. Experiments call the internal pipeline packages
// directly rather than through a Config, so the default tracer is the
// hook that observes them; it is cleared again before returning so traced
// runs cannot leak into each other.
func runExperiment(e experiment, seed int64, quick, stats bool) ([]*exp.Table, *obs.RunStats, error) {
	if !stats {
		tables, err := e.run(seed, quick)
		return tables, nil, err
	}
	tr := obs.NewTracer()
	obs.SetDefault(tr)
	defer obs.SetDefault(nil)
	tables, err := e.run(seed, quick)
	if err != nil {
		return nil, nil, err
	}
	return tables, tr.Snapshot(), nil
}
