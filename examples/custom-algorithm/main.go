// Authoring a new algorithm against the GX-Plug template, through the
// public gx package alone.
//
// The middleware's promise (§IV-A1) is that "algorithm engineers only
// focus on the implementation of the APIs of the algorithm template":
// MSGGen, MSGMerge and MSGApply. This example implements an algorithm not
// shipped in the library — degree-discounted influence spread (each
// vertex's score is the damped sum of its in-neighbours' scores divided
// by their out-degrees, seeded from a chosen vertex set) — registers it
// under the name "influence", and runs it unchanged on both upper
// systems, native and accelerated, purely by scenario.
//
//	go run ./examples/custom-algorithm
package main

import (
	"fmt"
	"log"
	"math"

	"gxplug/gx"
)

// influence implements gx.Algorithm. Attribute: one score slot.
// Messages: damped score contributions, merged by summation.
type influence struct {
	seeds   map[gx.VertexID]bool
	damping float64
	tol     float64
}

func newInfluence(seeds []gx.VertexID) *influence {
	m := make(map[gx.VertexID]bool, len(seeds))
	for _, s := range seeds {
		m[s] = true
	}
	return &influence{seeds: m, damping: 0.5, tol: 1e-10}
}

func (f *influence) Name() string   { return "Influence" }
func (f *influence) AttrWidth() int { return 1 }
func (f *influence) MsgWidth() int  { return 1 }

func (f *influence) Init(_ *gx.Context, id gx.VertexID, attr []float64) {
	if f.seeds[id] {
		attr[0] = 1
	}
}

// MSGGen writes the one message of an edge into msg, the executor's
// scratch row, and reports whether there is one: no allocation. The
// contribution is damping·score/outdegree — nothing of dst or w — which
// is what Hints.SourceOnly below declares, so executors generate it once
// per source and merge it into each of the source's edges.
func (f *influence) MSGGen(ctx *gx.Context, src, _ gx.VertexID, _ float64, srcAttr, msg []float64) bool {
	deg := ctx.OutDeg(src)
	if deg == 0 || srcAttr[0] == 0 {
		return false
	}
	msg[0] = f.damping * srcAttr[0] / float64(deg)
	return true
}

func (f *influence) MergeIdentity(msg []float64) { msg[0] = 0 }
func (f *influence) MSGMerge(acc, msg []float64) { acc[0] += msg[0] }

func (f *influence) MSGApply(_ *gx.Context, id gx.VertexID, attr, msg []float64, received bool) bool {
	base := 0.0
	if f.seeds[id] {
		base = 1
	}
	next := base
	if received {
		next += msg[0]
	}
	changed := math.Abs(next-attr[0]) > f.tol
	attr[0] = next
	return changed
}

func (f *influence) Hints() gx.Hints {
	return gx.Hints{
		GenAll:       true,
		ApplyAll:     true,
		OpsPerEdge:   60,
		OpsPerVertex: 30,
		SourceOnly:   true,
	}
}

// Registration makes "influence" addressable from scenarios, scenario
// files, and gxrun flags — exactly like the built-ins, which register
// through the same call.
func init() {
	gx.RegisterAlgorithm(gx.AlgorithmDef{
		Name: "influence",
		New: func(_ gx.AlgoParams, numV int) (gx.Algorithm, error) {
			return newInfluence([]gx.VertexID{0, gx.VertexID(numV / 2)}), nil
		},
	})
}

func main() {
	// The same template instance runs under BSP (GraphX order
	// Gen→Merge→Apply) and GAS (PowerGraph order Merge→Apply→Gen),
	// natively or through GPU daemons — no algorithm changes, and with
	// the registry no construction code either: only scenarios differ.
	base := gx.Scenario{
		Algorithm: "influence",
		Dataset:   "wiki-topcats",
		Seed:      9,
		Nodes:     3,
	}
	var reference []float64
	for _, engine := range []string{"graphx", "powergraph"} {
		for _, accel := range []string{"none", "gpu"} {
			s := base
			s.Engine, s.Accel = engine, accel
			res, err := gx.Run(s)
			if err != nil {
				log.Fatal(err)
			}
			if reference == nil {
				reference = res.Attrs
			} else {
				for i := range reference {
					if math.Abs(reference[i]-res.Attrs[i]) > 1e-9 {
						log.Fatalf("%s/%s disagrees with reference at %d", engine, accel, i)
					}
				}
			}
			var mass float64
			for _, score := range res.Attrs {
				mass += score
			}
			fmt.Printf("%-10s accel=%-4s: %v, %d iterations, total influence mass %.4f\n",
				engine, accel, res.Time, res.Iterations, mass)
		}
	}
	fmt.Println("all four configurations agree — one template, two models, two runtimes")
}
