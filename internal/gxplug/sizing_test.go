package gxplug

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gxplug/internal/algos"
	"gxplug/internal/cluster"
	"gxplug/internal/gen"
	"gxplug/internal/graph"
	"gxplug/internal/gxplug/template"
)

// ablationOptions is the ablation matrix of the evaluation: every
// combination of the toggles that reach the block-size policy or its cost
// coefficients, at three fixed block counts.
func ablationOptions() []Options {
	var out []Options
	for mask := 0; mask < 16; mask++ {
		for _, k := range []int{1, 8, 32} {
			o := fastOpts()
			o.Pipeline, o.OptimalBlockSize, o.Caching, o.RawCall = mask&1 != 0, mask&2 != 0, mask&4 != 0, mask&8 != 0
			o.FixedBlockCount = k
			out = append(out, o)
		}
	}
	return out
}

func optName(o Options) string {
	return fmt.Sprintf("pipeline=%v/optimal=%v/caching=%v/rawcall=%v/blocks=%d",
		o.Pipeline, o.OptimalBlockSize, o.Caching, o.RawCall, o.FixedBlockCount)
}

// The segment bound rests on two facts, checked here over the ablation
// matrix on graphs small enough to try every frontier size: the block
// size is monotone in the number of active edges d, and every block cut
// for a frontier of d <= E edges fits the segments the agent asked for at
// Connect. The bound must also be a bound on blocks, not on the edge
// table: the segment may not be more than a few times the largest block
// any frontier produces.
func TestSegmentFitsEveryBlock(t *testing.T) {
	for gi, gcfg := range []gen.RMATConfig{
		{NumVertices: 60, NumEdges: 400, A: 0.57, B: 0.19, C: 0.19, Seed: 3},
		{NumVertices: 700, NumEdges: 2500, A: 0.45, B: 0.25, C: 0.15, Seed: 9},
	} {
		g, err := gen.RMAT(gcfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []template.Algorithm{algos.NewPageRank(), algos.NewLP()} {
			part := graph.EdgeCutByHash(g, 2)
			ctx := testCtx(g)
			for _, opts := range ablationOptions() {
				name := fmt.Sprintf("graph%d/%s/%s", gi, alg.Name(), optName(opts))
				a := NewAgent(cluster.New(2, cluster.DatacenterNet()).Node(1), part, alg, ctx, newFakeUpper(g, alg, ctx), opts)
				if err := a.Connect(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				checkSegmentFit(t, name, a, rand.New(rand.NewSource(int64(gi))))
				a.Disconnect()
			}
		}
	}
}

func checkSegmentFit(t *testing.T, name string, a *Agent, rng *rand.Rand) {
	t.Helper()
	E := a.et.Len()
	aw, mw := a.alg.AttrWidth(), a.alg.MsgWidth()
	seg := a.daemons[0].segs[0].Size()
	if seg != a.segmentSize() {
		t.Fatalf("%s: segments of %d bytes, segmentSize() now says %d", name, seg, a.segmentSize())
	}
	prev := 0
	for d := 1; d <= E; d++ {
		b := a.chooseBlockSize(d)
		if b < prev {
			t.Fatalf("%s: chooseBlockSize(%d) = %d < chooseBlockSize(%d) = %d", name, d, b, d-1, prev)
		}
		if b < 1 || b > d {
			t.Fatalf("%s: chooseBlockSize(%d) = %d outside [1, d]", name, d, b)
		}
		prev = b
	}

	// Frontiers: every row, every prefix and suffix of the rows with
	// edges, and random subsets of every density.
	var withEdges []int
	for r := 0; r < a.vt.Len(); r++ {
		if s, e := a.mt.EdgeRange(r); e > s {
			withEdges = append(withEdges, r)
		}
	}
	frontiers := [][]int{withEdges}
	for cut := 1; cut < len(withEdges); cut += 1 + len(withEdges)/16 {
		frontiers = append(frontiers, withEdges[:cut], withEdges[cut:])
	}
	for i := 0; i < 24; i++ {
		var rows []int
		keep := rng.Intn(100) + 1
		for _, r := range withEdges {
			if rng.Intn(100) < keep {
				rows = append(rows, r)
			}
		}
		frontiers = append(frontiers, rows)
	}
	largest := 0
	for _, rows := range frontiers {
		d := 0
		for _, r := range rows {
			s, e := a.mt.EdgeRange(r)
			d += e - s
		}
		if d == 0 {
			continue
		}
		for bi, bp := range a.buildBlocks(rows, a.chooseBlockSize(d)) {
			need := genBlockSize(len(bp.eb.Triplets), len(bp.vb.IDs), aw, mw)
			if need > seg {
				t.Fatalf("%s: block %d of a %d-edge frontier needs %d bytes, segment has %d", name, bi, d, need, seg)
			}
			largest = max(largest, need)
		}
	}
	largest = max(largest, applyBlockSize(a.vt.Len()+1, aw, mw), mergeBlockSize(len(a.part.Masters)+1, mw))
	if seg > 4*largest {
		t.Errorf("%s: segment of %d bytes for blocks of at most %d (edge table: %d edges)", name, seg, largest, E)
	}
}

// A segment smaller than a block — the bound above being wrong, or a
// segment shrunk under the agent — must surface as the encode error of
// whichever request meets it: no panic, no partial result.
func TestUndersizedSegmentIsAnError(t *testing.T) {
	a, _ := connectedAgent(t)
	defer a.Disconnect()
	p := a.daemons[0]
	for role := range p.mem {
		p.mem[role] = p.mem[role][:48]
	}
	res, err := a.RequestGen(nil)
	if err == nil || !strings.Contains(err.Error(), "gen block needs") {
		t.Fatalf("RequestGen over 48-byte segments: result %v, error %v", res, err)
	}
	blank := a.nextResult()
	blank.Local().Touch(0)
	if ar, err := a.RequestApply(blank); err == nil || !strings.Contains(err.Error(), "apply block needs") {
		t.Fatalf("RequestApply over 48-byte segments: result %v, error %v", ar, err)
	}
	incoming := NewMsgBuf(a.alg, len(a.Masters()))
	incoming.Merge(0, []float64{1})
	if err := a.RequestMerge(blank, incoming); err == nil || !strings.Contains(err.Error(), "merge block needs") {
		t.Fatalf("RequestMerge over 48-byte segments: error %v", err)
	}
}
