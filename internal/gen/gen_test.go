package gen

import (
	"math"
	"sort"
	"testing"

	"gxplug/internal/graph"
)

func TestRMATValidate(t *testing.T) {
	bad := []RMATConfig{
		{NumVertices: 1, NumEdges: 10, A: 0.5, B: 0.2, C: 0.2},
		{NumVertices: 10, NumEdges: 0, A: 0.5, B: 0.2, C: 0.2},
		{NumVertices: 10, NumEdges: 10, A: 0, B: 0.2, C: 0.2},
		{NumVertices: 10, NumEdges: 10, A: 0.5, B: 0.3, C: 0.3},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, c)
		}
	}
}

func TestRMATDeterministic(t *testing.T) {
	c := RMATConfig{NumVertices: 256, NumEdges: 2000, A: 0.57, B: 0.19, C: 0.19, Seed: 7}
	g1, err := RMAT(c)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := RMAT(c)
	if !sameCSR(g1, g2) {
		t.Fatal("same seed produced different graphs")
	}
	c.Seed = 8
	g3, _ := RMAT(c)
	if sameCSR(g1, g3) {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestRMATSizes(t *testing.T) {
	g, err := RMAT(RMATConfig{NumVertices: 1000, NumEdges: 8000, A: 0.57, B: 0.19, C: 0.19, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 1000 || g.NumEdges() != 8000 {
		t.Fatalf("V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
}

// R-MAT with skewed quadrants must produce a heavy-tailed degree
// distribution: the top 1% of vertices should hold far more than 1% of
// the edges. A uniform ER graph must not.
func TestRMATSkewVsER(t *testing.T) {
	skew := func(g *graph.Graph) float64 {
		degs := make([]int, g.NumVertices())
		for v := range degs {
			degs[v] = g.OutDegree(graph.VertexID(v))
		}
		sort.Sort(sort.Reverse(sort.IntSlice(degs)))
		top := g.NumVertices() / 100
		if top < 1 {
			top = 1
		}
		var topSum int
		for _, d := range degs[:top] {
			topSum += d
		}
		return float64(topSum) / float64(g.NumEdges())
	}
	rg, err := RMAT(RMATConfig{NumVertices: 4096, NumEdges: 40000, A: 0.57, B: 0.19, C: 0.19, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	eg, err := ER(ERConfig{NumVertices: 4096, NumEdges: 40000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rs, es := skew(rg), skew(eg)
	if rs < 2*es {
		t.Fatalf("R-MAT top-1%% share %.3f not clearly above ER %.3f", rs, es)
	}
}

func TestERDeterministicAndSized(t *testing.T) {
	c := ERConfig{NumVertices: 500, NumEdges: 3000, Seed: 11}
	g1, err := ER(c)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := ER(c)
	if !sameCSR(g1, g2) {
		t.Fatal("ER not deterministic")
	}
	if g1.NumVertices() != 500 || g1.NumEdges() != 3000 {
		t.Fatalf("V=%d E=%d", g1.NumVertices(), g1.NumEdges())
	}
	if _, err := ER(ERConfig{NumVertices: 1, NumEdges: 1}); err == nil {
		t.Fatal("bad ER config accepted")
	}
}

func TestRoadShape(t *testing.T) {
	g, err := Road(RoadConfig{Rows: 30, Cols: 40, DiagonalFraction: 0.05, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 1200 {
		t.Fatalf("V=%d, want 1200", g.NumVertices())
	}
	st := g.Stats()
	if st.AvgDegree < 3 || st.AvgDegree > 5 {
		t.Fatalf("road avg degree %.2f outside [3,5]", st.AvgDegree)
	}
	if st.MaxDegree > 8 {
		t.Fatalf("road max degree %d, want small", st.MaxDegree)
	}
	// Symmetry: every edge has its reverse.
	fwd := make(map[[2]graph.VertexID]int)
	for v := 0; v < g.NumVertices(); v++ {
		g.OutEdges(graph.VertexID(v), func(d graph.VertexID, _ float64) { fwd[[2]graph.VertexID{graph.VertexID(v), d}]++ })
	}
	for k, c := range fwd {
		if fwd[[2]graph.VertexID{k[1], k[0]}] != c {
			t.Fatalf("road edge %v has no symmetric counterpart", k)
		}
	}
}

func TestRoadErrors(t *testing.T) {
	if _, err := Road(RoadConfig{Rows: 1, Cols: 5}); err == nil {
		t.Fatal("1-row road accepted")
	}
	if _, err := Road(RoadConfig{Rows: 3, Cols: 3, DiagonalFraction: 1.5}); err == nil {
		t.Fatal("diagonal fraction 1.5 accepted")
	}
}

func TestCatalogCoversTable1(t *testing.T) {
	for _, d := range AllDatasets() {
		info, err := Catalog(d)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		if info.PaperVertices <= 0 || info.PaperEdges <= 0 || info.Type == "" {
			t.Fatalf("%s: incomplete catalog entry %+v", d, info)
		}
	}
	if _, err := Catalog("nope"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

// The paper orders datasets by vertex degree and defaults to Orkut as the
// densest (footnote 5). Our stand-ins must preserve that ordering among
// the Fig 8 datasets.
func TestOrkutDensest(t *testing.T) {
	deg := func(d Dataset) float64 {
		g, err := Load(d, 2000, 1)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		return g.Stats().AvgDegree
	}
	orkut := deg(Orkut)
	for _, d := range []Dataset{WikiTopcats, LiveJournal, WRN} {
		if deg(d) >= orkut {
			t.Fatalf("%s avg degree %.2f >= orkut %.2f", d, deg(d), orkut)
		}
	}
}

func TestLoadScalesLinearly(t *testing.T) {
	g1, err := Load(Orkut, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Load(Orkut, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := float64(g1.NumEdges()) / float64(g2.NumEdges())
	if math.Abs(r-2) > 0.2 {
		t.Fatalf("scale 1000/2000 edge ratio %.2f, want ~2", r)
	}
}

func TestLoadBadScale(t *testing.T) {
	if _, err := Load(Orkut, 0, 1); err == nil {
		t.Fatal("scale 0 accepted")
	}
}

func TestLoadRoadIsRoad(t *testing.T) {
	g, err := Load(WRN, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := g.Stats().AvgDegree; d > 6 {
		t.Fatalf("WRN stand-in degree %.2f, want road-like (<6)", d)
	}
}
