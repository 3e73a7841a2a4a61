package engine_test

import (
	"fmt"
	"testing"

	"gxplug/internal/algos"
	"gxplug/internal/engine"
	"gxplug/internal/engine/graphx"
	"gxplug/internal/gen"
	"gxplug/internal/graph"
)

// BenchmarkEngineSuperstep measures the engine's per-superstep hot path —
// genPhase, message routing, mergeApplyPhase — on the native executor,
// where the engine's own routing and scheduling dominate. Each op is a
// fixed number of supersteps on a pre-partitioned RMAT graph, so ns/op
// tracks superstep latency and allocs/op tracks the message-routing
// allocation behaviour. Run with -benchmem. The recorded numbers are
// BENCHMARK.json's engine.native_superstep_ms and
// engine.native_allocs_per_superstep.
func BenchmarkEngineSuperstep(b *testing.B) {
	const supersteps = 10
	g, err := gen.RMAT(gen.RMATConfig{
		NumVertices: 20000, NumEdges: 120000, A: 0.57, B: 0.19, C: 0.19, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	srcs := algos.DefaultSources(g.NumVertices())

	for _, alg := range []struct {
		name string
		mk   func() engine.Config
	}{
		{"PageRank", func() engine.Config {
			return engine.Config{Graph: g, Alg: algos.NewPageRank(), MaxIter: supersteps}
		}},
		{"SSSP", func() engine.Config {
			return engine.Config{Graph: g, Alg: algos.NewSSSPBF(srcs), MaxIter: supersteps}
		}},
	} {
		for _, nodes := range []int{1, 4, 8} {
			part := graph.EdgeCutByHash(g, nodes)
			b.Run(fmt.Sprintf("%s/nodes=%d", alg.name, nodes), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					cfg := alg.mk()
					cfg.Nodes = nodes
					cfg.Partitioning = part
					res, err := graphx.Run(cfg)
					if err != nil {
						b.Fatal(err)
					}
					if res.Iterations == 0 {
						b.Fatal("no iterations ran")
					}
				}
			})
		}
	}
}
