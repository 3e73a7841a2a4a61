package engine_test

import (
	"fmt"
	"testing"
	"time"

	"gxplug/internal/algos"
	"gxplug/internal/engine"
	"gxplug/internal/engine/graphx"
	"gxplug/internal/engine/powergraph"
	"gxplug/internal/gen"
	"gxplug/internal/graph"
	"gxplug/internal/gxplug"
	"gxplug/internal/gxplug/template"
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
			part := graph.EdgeCutByRange(g, nodes)
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

// ablationScale and ablationGraph give BenchmarkAlgorithmsOnDaemon its
// fixed workload: the Orkut stand-in at 1/1000 of Table I.
const ablationScale = 1000

func ablationGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g, err := gen.Load(gen.Orkut, ablationScale, 42)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkAlgorithmsOnDaemon measures the plugged path: every built-in
// algorithm on PowerGraph with one scaled GPU daemon per node, reporting
// device throughput on the template path — edges processed per second
// of virtual device time. It is the workload the plugged CPU profiles
// are taken on (go test -bench BenchmarkAlgorithmsOnDaemon -benchtime
// 20x -cpuprofile cpu.out ./internal/engine).
func BenchmarkAlgorithmsOnDaemon(b *testing.B) {
	g := ablationGraph(b)
	algs := []template.Algorithm{
		algos.NewPageRank(),
		algos.NewSSSPBF(algos.DefaultSources(g.NumVertices())),
		algos.NewLP(),
		algos.NewCC(),
		algos.NewKCore(3),
		algos.NewKHopBFS([]graph.VertexID{0}, 0),
	}
	for _, alg := range algs {
		alg := alg
		b.Run(alg.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := powergraph.Run(engine.Config{
					Nodes: 2, Graph: g, Alg: alg, MaxIter: 10,
					Plug: []gxplug.Options{gxplug.GPUOptions(ablationScale, 1)},
				})
				if err != nil {
					b.Fatal(err)
				}
				var entities int64
				var dev time.Duration
				for _, s := range res.AgentStats {
					entities += s.Entities
					dev += s.DeviceTime
				}
				if dev > 0 {
					b.ReportMetric(float64(entities)/dev.Seconds()/1e6, "Medges/devsec")
				}
			}
		})
	}
}
