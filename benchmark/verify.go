package main

import (
	"fmt"
	"math"
	"reflect"
	"strings"

	"gxplug/gx"
	"gxplug/internal/algos"
	"gxplug/internal/gen"
)

// The verify steps compare what the server answered with computations
// the server had no part in. Nothing here is pinned to a digest file:
// every expectation is recomputed from the seed.

// verifySequential checks one uncapped native run per exact-merge
// algorithm against the sequential reference, bit for bit.
func verifySequential(in *instance) {
	g, err := gen.Load(gen.Orkut, in.cfg.size.scale, in.cfg.seed)
	if err != nil {
		in.chk.record("native-warm sequential reference", err.Error())
		return
	}
	for i, algo := range []string{"sssp", "cc", "lp"} {
		problem := ""
		alg, err := gx.NewAlgorithm(algo, gx.AlgoParams{}, g.NumVertices())
		if err == nil {
			want, _ := algos.Sequential(g, alg)
			var res *gx.Result
			res, err = gx.Run(gx.Scenario{
				Engine: []string{"graphx", "powergraph"}[i%2], Algorithm: algo,
				Dataset: string(gen.Orkut), Nodes: nodes,
			}, gx.WithGraph(g))
			if err == nil && gx.AttrsDigest(res.Attrs) != gx.AttrsDigest(want) {
				problem = "distributed result differs from algos.Sequential"
			}
		}
		if err != nil {
			problem = err.Error()
		}
		in.chk.record("native-warm sequential reference "+algo, problem)
	}
}

// replay runs the instance's jobs in process with each scenario
// rewritten by edit, and hands every entry's summary to compare along
// with the outcome the server gave for the same job.
func (in *instance) replay(what string, edit func(*gx.Scenario), compare func(served entryOutcome, local gx.ResultSummary) string) {
	var suite gx.Suite
	for _, job := range in.jobs {
		for _, e := range job.suite.Entries {
			edit(&e.Scenario)
			suite.Entries = append(suite.Entries, e)
		}
	}
	res, err := gx.RunSuite(suite)
	if err != nil {
		in.chk.record(what, err.Error())
		return
	}
	i := 0
	for _, job := range in.jobs {
		served := in.first[job.label]
		for k := range job.suite.Entries {
			local := res.Entries[i]
			i++
			problem := ""
			switch {
			case local.Err != nil:
				problem = local.Err.Error()
			case k >= len(served):
				problem = "the server never completed this job"
			default:
				problem = compare(served[k], local.Summary)
			}
			in.chk.record(what+" "+job.label, problem)
		}
	}
}

// verifyPluggedAgainstNative checks every plugged result against the
// native run of the same scenario: identical bits for the exact-merge
// algorithms, attribute sums within 1e-9 relative for pagerank, whose
// floating-point merge order legitimately differs.
func verifyPluggedAgainstNative(in *instance) {
	in.replay("plugged-warm vs native",
		func(s *gx.Scenario) { s.Accel = "none" },
		func(served entryOutcome, native gx.ResultSummary) string {
			if strings.Contains(served.Name, "pagerank") {
				if math.Abs(served.Sum-native.AttrsSum) > 1e-9*math.Abs(native.AttrsSum) {
					return fmt.Sprintf("attrs_sum %v, native %v", served.Sum, native.AttrsSum)
				}
			} else if served.Digest != native.AttrsDigest {
				return "attrs_digest differs from the native run's"
			}
			return ""
		})
}

// verifyIncrementalAgainstScratch checks every boundary digest of every
// incremental run against a from-scratch recomputation.
func verifyIncrementalAgainstScratch(in *instance) {
	in.replay("dynamic-inc vs scratch",
		scratchMode,
		func(served entryOutcome, scratch gx.ResultSummary) string {
			var want []string
			for _, b := range scratch.Batches {
				want = append(want, b.AttrsDigest)
			}
			if len(want) < 2 || !reflect.DeepEqual(served.Boundaries, want) {
				return fmt.Sprintf("boundary digests %v, scratch %v", served.Boundaries, want)
			}
			return ""
		})
}

// scratchMode rewrites a dynamic scenario to recompute every boundary
// from nothing.
func scratchMode(s *gx.Scenario) {
	scratch := *s.Batches
	scratch.Mode = "scratch"
	s.Batches = &scratch
}

// verifySnapshotsAgainstGenerated checks that a `file+snapshot:`
// reference to a saved (dataset, scale, seed) triple gave the outcome
// the generated triple gave.
func verifySnapshotsAgainstGenerated(in *instance) {
	for label, snap := range in.first {
		name, ok := strings.CutPrefix(label, "snap:")
		if !ok {
			continue
		}
		problem := ""
		if generated := in.first["gen:"+name]; !reflect.DeepEqual(snap, generated) {
			problem = fmt.Sprintf("outcome %+v, generated %+v", snap, generated)
		}
		in.chk.record("cold-suite snapshot vs generated "+name, problem)
	}
}
