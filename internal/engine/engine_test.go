package engine_test

import (
	"errors"
	"math"
	"testing"

	"gxplug/internal/algos"
	"gxplug/internal/device"
	"gxplug/internal/engine"
	"gxplug/internal/engine/graphx"
	"gxplug/internal/engine/powergraph"
	"gxplug/internal/gen"
	"gxplug/internal/graph"
	"gxplug/internal/gxplug"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.RMAT(gen.RMATConfig{
		NumVertices: 500, NumEdges: 4000, A: 0.57, B: 0.19, C: 0.19, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func maxDiff(a, b []float64) float64 {
	var worst float64
	for i := range a {
		if math.IsInf(a[i], 1) && math.IsInf(b[i], 1) {
			continue
		}
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func cpuPlug() []gxplug.Options {
	o := gxplug.DefaultOptions()
	o.Devices = []device.Spec{device.Xeon20()}
	return []gxplug.Options{o}
}

func gpuPlug() []gxplug.Options {
	o := gxplug.DefaultOptions()
	return []gxplug.Options{o}
}

// Every engine × plug combination must agree with the sequential
// reference — the core correctness statement of the whole reproduction.
func TestEnginesMatchReferences(t *testing.T) {
	g := testGraph(t)
	srcs := algos.DefaultSources(g.NumVertices())
	refPR, _ := algos.RefPageRank(g, 0.85, 1e-9, 0)
	refSSSP, _ := algos.RefSSSPBF(g, srcs)

	runs := []struct {
		name string
		run  func(cfg engine.Config) (*engine.Result, error)
	}{
		{"GraphX", graphx.Run},
		{"PowerGraph", powergraph.Run},
	}
	for _, eng := range runs {
		for _, plugged := range []bool{false, true} {
			var plug []gxplug.Options
			if plugged {
				plug = cpuPlug()
			}
			name := eng.name
			if plugged {
				name += "+CPU"
			}
			t.Run(name+"/PageRank", func(t *testing.T) {
				res, err := eng.run(engine.Config{
					Nodes: 3, Graph: g, Alg: algos.NewPageRank(), Plug: plug,
				})
				if err != nil {
					t.Fatal(err)
				}
				if d := maxDiff(res.Attrs, refPR); d > 1e-9 {
					t.Fatalf("PageRank diverges by %v", d)
				}
				if res.Time <= 0 || res.Iterations == 0 {
					t.Fatalf("degenerate result: %+v", res)
				}
			})
			t.Run(name+"/SSSP", func(t *testing.T) {
				res, err := eng.run(engine.Config{
					Nodes: 3, Graph: g, Alg: algos.NewSSSPBF(srcs), Plug: plug,
				})
				if err != nil {
					t.Fatal(err)
				}
				if d := maxDiff(res.Attrs, refSSSP); d > 1e-9 {
					t.Fatalf("SSSP diverges by %v", d)
				}
			})
		}
	}
}

// LP runs under its 15-iteration cap and matches the exact reference on a
// low-degree graph.
func TestEnginesLPOnRoad(t *testing.T) {
	g, err := gen.Road(gen.RoadConfig{Rows: 14, Cols: 14, DiagonalFraction: 0, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := algos.RefLP(g, 15)
	for _, run := range []func(engine.Config) (*engine.Result, error){graphx.Run, powergraph.Run} {
		res, err := run(engine.Config{Nodes: 2, Graph: g, Alg: algos.NewLP(), Plug: cpuPlug()})
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations > 15 {
			t.Fatalf("LP ran %d iterations", res.Iterations)
		}
		if d := maxDiff(res.Attrs, want); d != 0 {
			t.Fatalf("LP diverges by %v", d)
		}
	}
}

// The headline claim of Fig 8: plugging an accelerator speeds the engine
// up, GPUs more than CPUs, and GraphX gains more than PowerGraph.
func TestAccelerationOrdering(t *testing.T) {
	g, err := gen.Load(gen.Orkut, 4000, 1)
	if err != nil {
		t.Fatal(err)
	}
	srcs := algos.DefaultSources(g.NumVertices())
	mk := func() engine.Config {
		return engine.Config{Nodes: 3, Graph: g, Alg: algos.NewSSSPBF(srcs)}
	}
	timeOf := func(run func(engine.Config) (*engine.Result, error), plug []gxplug.Options) float64 {
		cfg := mk()
		cfg.Plug = plug
		res, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Time.Seconds()
	}
	gxNative := timeOf(graphx.Run, nil)
	gxCPU := timeOf(graphx.Run, cpuPlug())
	gxGPU := timeOf(graphx.Run, gpuPlug())
	pgNative := timeOf(powergraph.Run, nil)
	pgGPU := timeOf(powergraph.Run, gpuPlug())

	if !(gxGPU < gxCPU && gxCPU < gxNative) {
		t.Fatalf("GraphX ordering wrong: GPU=%.4f CPU=%.4f native=%.4f", gxGPU, gxCPU, gxNative)
	}
	if pgGPU >= pgNative {
		t.Fatalf("PowerGraph+GPU (%.4f) not faster than native (%.4f)", pgGPU, pgNative)
	}
	if pgNative >= gxNative {
		t.Fatalf("native PowerGraph (%.4f) not faster than native GraphX (%.4f)", pgNative, gxNative)
	}
	if ratio := gxNative / gxGPU; ratio < 2 {
		t.Fatalf("GraphX GPU acceleration only %.1fx, want >2x", ratio)
	}
}

// Synchronization skipping fires on a locality-partitioned road network
// and not when disabled; results are unchanged either way (Fig 11b).
func TestSkippingOnRoadNetwork(t *testing.T) {
	g, err := gen.Load(gen.WRN, 4000, 1)
	if err != nil {
		t.Fatal(err)
	}
	srcs := []graph.VertexID{0}
	alg := algos.NewSSSPBF(srcs)
	withSkip := cpuPlug()
	noSkip := cpuPlug()
	noSkip[0].Skipping = false

	resSkip, err := graphx.Run(engine.Config{Nodes: 4, Graph: g, Alg: alg, Plug: withSkip})
	if err != nil {
		t.Fatal(err)
	}
	resNo, err := graphx.Run(engine.Config{Nodes: 4, Graph: g, Alg: alg, Plug: noSkip})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(resSkip.Attrs, resNo.Attrs); d > 1e-9 {
		t.Fatalf("skipping changed results by %v", d)
	}
	if resNo.SkippedSyncs != 0 {
		t.Fatalf("skipping disabled but %d syncs skipped", resNo.SkippedSyncs)
	}
	if resSkip.SkippedSyncs == 0 {
		t.Fatal("no syncs skipped on a range-partitioned road network")
	}
	frac := float64(resSkip.SkippedSyncs) / float64(resSkip.Iterations)
	if frac < 0.3 {
		t.Fatalf("only %.0f%% of iterations skipped; road networks should skip most", frac*100)
	}
}

// Uniform synthetic graphs defeat skipping (Fig 11b's negative case).
func TestSkippingRareOnUniformGraph(t *testing.T) {
	g, err := gen.ER(gen.ERConfig{NumVertices: 2000, NumEdges: 8000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	alg := algos.NewSSSPBF([]graph.VertexID{0})
	res, err := graphx.Run(engine.Config{Nodes: 4, Graph: g, Alg: alg, Plug: cpuPlug()})
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(res.SkippedSyncs) / float64(res.Iterations)
	if frac > 0.5 {
		t.Fatalf("%.0f%% skipped on a uniform graph; expected rare", frac*100)
	}
}

// Middleware cost ratio must fall as the cluster grows (Fig 14's trend).
func TestMiddlewareRatioFallsWithNodes(t *testing.T) {
	g, err := gen.Load(gen.Orkut, 4000, 1)
	if err != nil {
		t.Fatal(err)
	}
	ratio := func(nodes int) float64 {
		res, err := powergraph.Run(engine.Config{
			Nodes: nodes, Graph: g, Alg: algos.NewPageRank(), Plug: gpuPlug(),
		})
		if err != nil {
			t.Fatal(err)
		}
		total := res.MiddlewareTime + res.UpperTime
		return float64(res.MiddlewareTime) / float64(total)
	}
	r4 := ratio(4)
	r16 := ratio(16)
	if r16 >= r4 {
		t.Fatalf("middleware ratio did not fall: %d nodes %.2f -> %d nodes %.2f", 4, r4, 16, r16)
	}
}

// Per-node heterogeneous plugs: a GPU node and a CPU node still compute
// the right answer (the Fig 9d mix & match path).
func TestHeterogeneousNodes(t *testing.T) {
	g := testGraph(t)
	gpu := gxplug.DefaultOptions()
	cpu := gxplug.DefaultOptions()
	cpu.Devices = []device.Spec{device.Xeon20()}
	res, err := powergraph.Run(engine.Config{
		Nodes: 2, Graph: g, Alg: algos.NewPageRank(),
		Plug: []gxplug.Options{gpu, cpu},
	})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := algos.RefPageRank(g, 0.85, 1e-9, 0)
	if d := maxDiff(res.Attrs, want); d > 1e-9 {
		t.Fatalf("heterogeneous run diverges by %v", d)
	}
}

// A partition that does not fit GPU memory must surface ErrOutOfMemory.
func TestEngineOOM(t *testing.T) {
	g := testGraph(t)
	tiny := gxplug.DefaultOptions()
	spec := device.V100()
	spec.MemBytes = 512
	tiny.Devices = []device.Spec{spec}
	_, err := powergraph.Run(engine.Config{
		Nodes: 1, Graph: g, Alg: algos.NewPageRank(), Plug: []gxplug.Options{tiny},
	})
	if !errors.Is(err, device.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

// MaxIter caps runs.
func TestEngineMaxIter(t *testing.T) {
	g := testGraph(t)
	res, err := graphx.Run(engine.Config{Nodes: 2, Graph: g, Alg: algos.NewPageRank(), MaxIter: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 3 {
		t.Fatalf("iterations = %d, want 3", res.Iterations)
	}
}

// Custom partitionings (the balancing experiments) are honoured.
func TestEngineCustomPartitioning(t *testing.T) {
	g := testGraph(t)
	part := graph.PartitionBySizes(g, []float64{1, 4})
	res, err := powergraph.Run(engine.Config{
		Nodes: 2, Graph: g, Alg: algos.NewPageRank(), Partitioning: part, Plug: cpuPlug(),
	})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := algos.RefPageRank(g, 0.85, 1e-9, 0)
	if d := maxDiff(res.Attrs, want); d > 1e-9 {
		t.Fatalf("custom partitioning diverges by %v", d)
	}
}

// KCore and CC also run end-to-end on both engines.
func TestEnginesOtherAlgos(t *testing.T) {
	g, err := gen.Road(gen.RoadConfig{Rows: 12, Cols: 12, DiagonalFraction: 0.1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	wantCC, _ := algos.RefCC(g)
	wantKC, _ := algos.RefKCore(g, 3)
	for _, run := range []func(engine.Config) (*engine.Result, error){graphx.Run, powergraph.Run} {
		res, err := run(engine.Config{Nodes: 2, Graph: g, Alg: algos.NewCC(), Plug: cpuPlug()})
		if err != nil {
			t.Fatal(err)
		}
		if d := maxDiff(res.Attrs, wantCC); d != 0 {
			t.Fatalf("CC diverges by %v", d)
		}
		res, err = run(engine.Config{Nodes: 2, Graph: g, Alg: algos.NewKCore(3), Plug: cpuPlug()})
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.NumVertices(); v++ {
			if res.Attrs[v*2] != wantKC[v] {
				t.Fatalf("k-core vertex %d alive=%v want %v", v, res.Attrs[v*2], wantKC[v])
			}
		}
	}
}
