package engine_test

import (
	"math"
	"runtime"
	"testing"

	"gxplug/internal/algos"
	"gxplug/internal/engine"
	"gxplug/internal/engine/graphx"
	"gxplug/internal/engine/powergraph"
	"gxplug/internal/gen"
	"gxplug/internal/gxplug/template"
)

// This suite guards the bounded synchronization cache (§III-B2 "organized
// in a least recently used manner"): dirty evictions are spilled and
// uploaded only at serialized phase boundaries, so the worker-pool
// fan-out stays race-free and deterministic even when agents evict
// mid-phase. Run under -race (make ci does) to catch any mid-phase write
// to shared authoritative state.

// TestBoundedCacheDeterminism demands, for a cache bounded well below the
// vertex table on both engines and two workloads:
//
//   - parallel runs are reproducible and bit-identical to sequential
//     execution, with identical virtual clocks (the
//     TestParallelSuperstepDeterminism guarantee, extended to bounded
//     caches), and
//   - results are bit-identical to the unbounded run — bounding the cache
//     changes costs (re-fetches, spill uploads), never values.
func TestBoundedCacheDeterminism(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{
		NumVertices: 1500, NumEdges: 10000, A: 0.57, B: 0.19, C: 0.19, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Roughly 1/8 of a node's share of the vertex table: heavy, constant
	// eviction churn on every agent.
	capacity := g.NumVertices() / 8 / 8
	srcs := algos.DefaultSources(g.NumVertices())
	cases := []struct {
		name string
		run  func(engine.Config) (*engine.Result, error)
		alg  func() template.Algorithm
	}{
		{"GraphX/PageRank", graphx.Run, func() template.Algorithm { return algos.NewPageRank() }},
		{"GraphX/SSSP", graphx.Run, func() template.Algorithm { return algos.NewSSSPBF(srcs) }},
		{"PowerGraph/PageRank", powergraph.Run, func() template.Algorithm { return algos.NewPageRank() }},
		{"PowerGraph/SSSP", powergraph.Run, func() template.Algorithm { return algos.NewSSSPBF(srcs) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			once := func(procs, capRows int) *engine.Result {
				old := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(old)
				plug := cpuPlug()
				plug[0].CacheCapacity = capRows
				res, err := tc.run(engine.Config{
					Nodes: 8, Graph: g, Alg: tc.alg(), Plug: plug,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a := once(8, capacity)
			b := once(8, capacity)
			seq := once(1, capacity)
			unbounded := once(8, 0)

			evictions := int64(0)
			for _, as := range a.AgentStats {
				evictions += as.CacheEvictions
			}
			if evictions == 0 {
				t.Fatalf("capacity %d of %d vertices drove no evictions; the test exercises nothing", capacity, g.NumVertices())
			}

			// Parallel vs repeat-parallel vs sequential: everything
			// identical, including per-node virtual clocks.
			for name, other := range map[string]*engine.Result{"repeat-parallel": b, "sequential": seq} {
				if a.Time != other.Time {
					t.Fatalf("%s: simulated makespan differs: %v vs %v", name, a.Time, other.Time)
				}
				if a.Iterations != other.Iterations || a.SkippedSyncs != other.SkippedSyncs {
					t.Fatalf("%s: iteration accounting differs", name)
				}
				if a.UpperTime != other.UpperTime || a.MiddlewareTime != other.MiddlewareTime {
					t.Fatalf("%s: cost split differs: upper %v/%v middleware %v/%v",
						name, a.UpperTime, other.UpperTime, a.MiddlewareTime, other.MiddlewareTime)
				}
				for i := range a.Attrs {
					if math.Float64bits(a.Attrs[i]) != math.Float64bits(other.Attrs[i]) {
						t.Fatalf("%s: attrs[%d] = %v vs %v (not bit-identical)", name, i, a.Attrs[i], other.Attrs[i])
					}
				}
				for j, nd := range a.Cluster.Nodes() {
					if nd.Clock.Now() != other.Cluster.Node(j).Clock.Now() {
						t.Fatalf("%s: node %d clock differs: %v vs %v",
							name, j, nd.Clock.Now(), other.Cluster.Node(j).Clock.Now())
					}
				}
			}

			// Bounded vs unbounded: same values (time may differ — the
			// bound exists to trade boundary traffic for memory).
			if a.Iterations != unbounded.Iterations {
				t.Fatalf("bounded cache changed iteration count: %d vs %d", a.Iterations, unbounded.Iterations)
			}
			for i := range a.Attrs {
				if math.Float64bits(a.Attrs[i]) != math.Float64bits(unbounded.Attrs[i]) {
					t.Fatalf("bounded attrs[%d] = %v, unbounded %v (not bit-identical)",
						i, a.Attrs[i], unbounded.Attrs[i])
				}
			}
		})
	}
}

// TestBoundedCacheStatsObserved checks the observer surface of the new
// dimension: per-superstep cache deltas equal the agents' totals, and a
// bounded run reports evictions and dirty spills where the unbounded run
// reports none.
func TestBoundedCacheStatsObserved(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{
		NumVertices: 1200, NumEdges: 8000, A: 0.57, B: 0.19, C: 0.19, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(capRows int) (*engine.Result, []engine.SuperstepInfo) {
		var steps []engine.SuperstepInfo
		plug := cpuPlug()
		plug[0].CacheCapacity = capRows
		res, err := powergraph.Run(engine.Config{
			Nodes: 4, Graph: g, Alg: algos.NewPageRank(), Plug: plug,
			MaxIter:  6,
			Observer: func(si engine.SuperstepInfo) { steps = append(steps, si) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, steps
	}

	res, steps := run(g.NumVertices() / 8 / 4)
	var hits, misses, evictions, spills int64
	for _, si := range steps {
		hits += si.CacheHits
		misses += si.CacheMisses
		evictions += si.CacheEvictions
		spills += si.CacheDirtySpills
	}
	var wantHits, wantMisses, wantEvictions, wantSpills int64
	for _, as := range res.AgentStats {
		wantHits += as.CacheHits
		wantMisses += as.CacheMisses
		wantEvictions += as.CacheEvictions
		wantSpills += as.DirtySpills
	}
	if hits != wantHits || misses != wantMisses || evictions != wantEvictions || spills != wantSpills {
		t.Fatalf("observer deltas (h=%d m=%d e=%d s=%d) do not sum to agent totals (h=%d m=%d e=%d s=%d)",
			hits, misses, evictions, spills, wantHits, wantMisses, wantEvictions, wantSpills)
	}
	// Connect's initial download churns a bounded cache too, but it is
	// setup and counts nowhere: the evictions above are superstep ones.
	if evictions == 0 {
		t.Fatalf("bounded PageRank run observed no evictions")
	}
	if spills == 0 {
		t.Fatalf("bounded PageRank run observed no dirty spills")
	}

	_, steps = run(0)
	for _, si := range steps {
		if si.CacheDirtySpills != 0 {
			t.Fatalf("unbounded run reported dirty spills at superstep %d: %+v", si.Iteration, si)
		}
	}
}
