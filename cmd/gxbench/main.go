// Command gxbench regenerates the paper's tables and figures.
//
// Usage:
//
//	gxbench -exp all                 # every experiment at the default scale
//	gxbench -exp fig9a -scale 500    # one experiment, custom scale
//	gxbench -exp fig8 -dataset wrn   # restrict fig8 to one dataset
//	gxbench -list                    # list experiment names
//
// Output is the textual form of each figure: the same rows and series the
// paper plots, produced by the internal/harness runners. Unknown -exp and
// -dataset values fail with the list of known names (datasets come from
// the gx registry).
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"

	"gxplug/gx"
	"gxplug/internal/gen"
	"gxplug/internal/harness"
)

type experiment struct {
	name string
	desc string
	run  func(harness.Options) (fmt.Stringer, error)
}

// experiments builds the catalog; fig8Datasets restricts the fig8 sweep
// (nil = the full Table I set).
func experiments(fig8Datasets []gen.Dataset) []experiment {
	return []experiment{
		{"table1", "Table I: dataset catalog", func(o harness.Options) (fmt.Stringer, error) {
			return harness.TableDatasets(o)
		}},
		{"fig8", "Fig 8: engines × accelerators × algorithms × datasets", func(o harness.Options) (fmt.Stringer, error) {
			return harness.Fig8(o, fig8Datasets)
		}},
		{"fig8-orkut", "Fig 8 restricted to Orkut (fast)", func(o harness.Options) (fmt.Stringer, error) {
			return harness.Fig8(o, []gen.Dataset{gen.Orkut})
		}},
		{"fig9a", "Fig 9a: GPU scalability vs Lux and Gunrock", func(o harness.Options) (fmt.Stringer, error) {
			return harness.Fig9a(o)
		}},
		{"fig9b", "Fig 9b: Twitter & UK-2007 with OOM boundaries", func(o harness.Options) (fmt.Stringer, error) {
			return harness.Fig9b(o)
		}},
		{"fig9c", "Fig 9c: per-algorithm GPU scaling", func(o harness.Options) (fmt.Stringer, error) {
			return harness.Fig9c(o)
		}},
		{"fig9d", "Fig 9d: CPU/GPU daemon mix & match", func(o harness.Options) (fmt.Stringer, error) {
			return harness.Fig9d(o)
		}},
		{"fig10", "Fig 10: pipeline shuffle variants", func(o harness.Options) (fmt.Stringer, error) {
			return harness.Fig10(o)
		}},
		{"fig11a", "Fig 11a: synchronization caching", func(o harness.Options) (fmt.Stringer, error) {
			return harness.Fig11a(o)
		}},
		{"fig11b", "Fig 11b: synchronization skipping", func(o harness.Options) (fmt.Stringer, error) {
			return harness.Fig11b(o)
		}},
		{"cachecap", "Fig 11a-adjacent: runtime & hit rate vs cache capacity", func(o harness.Options) (fmt.Stringer, error) {
			return harness.CacheCapSweep(o)
		}},
		{"fig12a", "Fig 12a: balancing under fixed hardware", func(o harness.Options) (fmt.Stringer, error) {
			return harness.Fig12a(o)
		}},
		{"fig12b", "Fig 12b: balancing under fixed partitioning", func(o harness.Options) (fmt.Stringer, error) {
			return harness.Fig12b(o)
		}},
		{"fig13", "Fig 13: runtime isolation", func(o harness.Options) (fmt.Stringer, error) {
			return harness.Fig13(o)
		}},
		{"fig14", "Fig 14: middleware cost ratio", func(o harness.Options) (fmt.Stringer, error) {
			return harness.Fig14(o)
		}},
		{"fig15", "Fig 15: block-size sweep and s_opt estimation", func(o harness.Options) (fmt.Stringer, error) {
			return harness.Fig15(o)
		}},
		{"plan", "Planner: LPT vs file-order packing + prediction accuracy (writes BENCH_plan.json)", runPlanExperiment},
	}
}

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment name, or 'all'")
		scale   = flag.Int64("scale", 1000, "dataset scale divisor (1000 = 1/1000 of Table I sizes)")
		seed    = flag.Int64("seed", 42, "generator seed")
		dataset = flag.String("dataset", "", "restrict fig8 to one dataset: "+strings.Join(gx.Datasets(), " | "))
		list    = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	var fig8Datasets []gen.Dataset
	if *dataset != "" {
		if !slices.Contains(gx.Datasets(), *dataset) {
			fmt.Fprintf(os.Stderr, "gxbench: unknown dataset %q (registered: %s)\n",
				*dataset, strings.Join(gx.Datasets(), ", "))
			os.Exit(2)
		}
		fig8Datasets = []gen.Dataset{gen.Dataset(*dataset)}
	}

	exps := experiments(fig8Datasets)
	if *list {
		names := make([]string, 0, len(exps))
		for _, e := range exps {
			names = append(names, fmt.Sprintf("  %-12s %s", e.name, e.desc))
		}
		sort.Strings(names)
		fmt.Println("experiments:")
		for _, n := range names {
			fmt.Println(n)
		}
		return
	}

	o := harness.Options{Scale: *scale, Seed: *seed}
	if err := o.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *exp != "all" {
		known := false
		for _, e := range exps {
			known = known || e.name == *exp
		}
		if !known {
			names := make([]string, 0, len(exps))
			for _, e := range exps {
				names = append(names, e.name)
			}
			sort.Strings(names)
			fmt.Fprintf(os.Stderr, "gxbench: unknown experiment %q (registered: %s)\n",
				*exp, strings.Join(names, ", "))
			os.Exit(2)
		}
	}
	for _, e := range exps {
		if *exp != "all" && e.name != *exp {
			continue
		}
		if *exp == "all" && e.name == "fig8-orkut" {
			continue // subsumed by fig8
		}
		if *exp == "all" && e.name == "plan" {
			continue // wall-clock benchmark with a recorded artifact; run explicitly
		}
		res, err := e.run(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println(res.String())
	}
	// Every experiment routes its loads through the shared dataset
	// cache; the accounting line makes the reuse visible (hits > 0 on
	// any multi-experiment sweep).
	if st := harness.DatasetStats(); st.Entries > 0 {
		fmt.Printf("dataset cache: %d graphs generated, %d cache hits\n", st.Entries, st.Hits)
	}
}
