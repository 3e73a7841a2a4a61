// Dynamic graphs: run a scenario over a stream of timestamped edge
// batches and compare incremental recomputation against from-scratch.
//
// The example makes the dynamic-graph contract concrete. A batch
// stream — here synthesized deterministically against the seed graph,
// saved to a .gxb file, and referenced with a digest-pinned
// `file+batches:` dataset-style ref — turns one run into a sequence of
// batch boundaries over an evolving graph. The default incremental
// mode replays the previous boundary's recorded trajectory over the
// dirty cone; scratch mode reconverges every boundary from nothing.
// The two are bit-identical at every boundary (attributes, digests,
// iteration counts), and incremental is never slower on the virtual
// clock.
//
//	go run ./examples/dynamic-graphs
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"gxplug/gx"
	"gxplug/internal/gen"
	"gxplug/internal/gen/ingest"
)

func main() {
	base := gx.Scenario{
		Engine:    "graphx",
		Algorithm: "pagerank",
		Dataset:   "orkut",
		Scale:     1500,
		Seed:      7,
		Nodes:     3,
		MaxIter:   8,
	}

	// Synthesize a deterministic 4-batch stream against the seed graph
	// (removes always name live edges: synthesis evolves the graph as
	// it emits) and save it as a .gxb stream file, pinned to its
	// content digest like any other file reference.
	g, err := gx.LoadDataset(base.Dataset, base.Scale, base.Seed)
	if err != nil {
		log.Fatal(err)
	}
	batches, err := gen.SynthesizeBatches(g, gen.BatchesConfig{
		Batches: 4, Adds: 12, Removes: 6, Seed: base.Seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "gxplug-dynamic-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "stream.gxb")
	if err := ingest.SaveBatchStreamFile(path, batches); err != nil {
		log.Fatal(err)
	}
	_, sha, err := ingest.FileDigests(path)
	if err != nil {
		log.Fatal(err)
	}
	ref := "file+batches:" + path + "#sha256=" + sha

	// A planner prices the whole sequence before anything runs: full
	// seed-boundary cost per batch on scratch, a quarter-cost prior on
	// incremental.
	planner := gx.NewPlanner(nil)
	run := func(mode string) *gx.Result {
		s := base
		s.Batches = &gx.BatchSpec{Stream: ref, Mode: mode}
		est, err := planner.Estimate(s)
		if err != nil {
			log.Fatal(err)
		}
		res, err := gx.Run(s)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-11s: predicted %v, actual %v over %d boundaries\n",
			s.Batches.Mode, est.Makespan, res.Time, len(res.Batches))
		return res
	}
	inc := run("incremental")
	scr := run("scratch")

	// The contract, boundary by boundary: identical digests and
	// iteration counts, incremental never slower.
	fmt.Printf("\n  %3s %6s %6s %7s %5s  %-16s %12s %12s\n",
		"seq", "adds", "drops", "dirty", "iter", "digest", "incremental", "scratch")
	for i := range inc.Batches {
		bi, bs := inc.Batches[i], scr.Batches[i]
		if bi.AttrsDigest != bs.AttrsDigest || bi.Iterations != bs.Iterations {
			log.Fatalf("boundary %d diverged: %s/%d vs %s/%d",
				i, bi.AttrsDigest, bi.Iterations, bs.AttrsDigest, bs.Iterations)
		}
		fmt.Printf("  %3d %6d %6d %7d %5d  %-16s %12v %12v\n",
			bi.Seq, bi.Adds, bi.Removes, bi.Dirty, bi.Iterations, bi.AttrsDigest[:16], bi.Time, bs.Time)
	}
	fmt.Printf("\nbit-identical at every boundary; incremental saved %v (%.1f%% of scratch)\n",
		scr.Time-inc.Time, 100*float64(inc.Time)/float64(scr.Time))
}
