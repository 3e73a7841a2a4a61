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
	"errors"
	"flag"
	"fmt"
	"io"
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
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command behind main: it parses args, writes figures
// to stdout and diagnostics to stderr, and returns the exit status (2
// for bad flags or names, 1 for a failed experiment).
func run(args []string, stdout, stderr io.Writer) int {
	def := harness.Default()
	fs := flag.NewFlagSet("gxbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp     = fs.String("exp", "all", "experiment name, or 'all'")
		scale   = fs.Int64("scale", def.Scale, "dataset scale divisor (1000 = 1/1000 of Table I sizes)")
		seed    = fs.Int64("seed", def.Seed, "generator seed")
		dataset = fs.String("dataset", "", "restrict fig8 to one dataset: "+strings.Join(gx.Datasets(), " | "))
		list    = fs.Bool("list", false, "list experiments and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var fig8Datasets []gen.Dataset
	if *dataset != "" {
		if !slices.Contains(gx.Datasets(), *dataset) {
			fmt.Fprintf(stderr, "gxbench: unknown dataset %q (registered: %s)\n",
				*dataset, strings.Join(gx.Datasets(), ", "))
			return 2
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
		fmt.Fprintln(stdout, "experiments:")
		for _, n := range names {
			fmt.Fprintln(stdout, n)
		}
		return 0
	}

	o := harness.Options{Scale: *scale, Seed: *seed}
	if err := o.Validate(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *exp != "all" && !slices.ContainsFunc(exps, func(e experiment) bool { return e.name == *exp }) {
		names := make([]string, 0, len(exps))
		for _, e := range exps {
			names = append(names, e.name)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "gxbench: unknown experiment %q (registered: %s)\n",
			*exp, strings.Join(names, ", "))
		return 2
	}
	for _, e := range exps {
		if *exp != "all" && e.name != *exp {
			continue
		}
		res, err := e.run(o)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.name, err)
			return 1
		}
		fmt.Fprintln(stdout, res.String())
	}
	// Every experiment routes its loads through the shared dataset
	// cache; the accounting line makes the reuse visible (hits > 0 on
	// any multi-experiment sweep).
	if st := harness.DatasetStats(); st.Entries > 0 {
		fmt.Fprintf(stdout, "dataset cache: %d graphs generated, %d cache hits\n", st.Entries, st.Hits)
	}
	return 0
}
