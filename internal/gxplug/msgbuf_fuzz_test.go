package gxplug

import (
	"testing"

	"gxplug/internal/algos"
	"gxplug/internal/graph"
)

// FuzzMsgBuf checks the one message buffer against its plain-map
// reference: a fuzz-derived stream of messages and bare touches goes into
// a GenResult and into one map per destination node, and they must agree
// bit for bit on the merged messages, the first-touch order and the
// untouched rows, across Reset reuse and any cluster geometry.
func FuzzMsgBuf(f *testing.F) {
	f.Add([]byte("dense-routing"))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 250, 251, 252})
	f.Add([]byte("masters"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		alg := algos.NewSSSPBF([]graph.VertexID{0, 1})
		mw := alg.MsgWidth()
		r := &fzr{data: data}

		nodes := 1 + int(r.byte())%4
		numV := 1 + int(r.byte())%64
		self := int(r.byte()) % nodes
		part := graph.EdgeCutByHash(graph.MustFromEdges(numV, nil), nodes)
		res := NewGenResult(alg, part, self)

		for round := 0; round < 2; round++ {
			res.Reset()
			ref := newGenResultRef(part)
			nOps := int(r.byte()) % 64
			msg := make([]float64, mw)
			for op := 0; op < nOps; op++ {
				id := graph.VertexID(int(r.byte()) % numV)
				if r.byte()%8 == 0 { // occasionally touch without merging
					owner, row := ref.locate(id)
					res.To[owner].Touch(row)
					ref.to[owner].touch(alg, row)
					continue
				}
				for k := range msg {
					// Finite non-negative values: SSSP merges by min, so
					// the reference merge is bit-exact.
					msg[k] = float64(r.u32())
				}
				res.Add(id, msg)
				ref.add(alg, id, msg)
			}
			ref.check(t, alg, res)
		}
	})
}
