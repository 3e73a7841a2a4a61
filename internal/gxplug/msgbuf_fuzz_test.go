package gxplug

import (
	"testing"

	"gxplug/internal/algos"
	"gxplug/internal/graph"
)

// FuzzOutboxRouting checks the dense outbox against a plain map
// reference: the same fuzz-derived message stream goes into both, and
// they must agree bit for bit on the merged messages and on the
// first-touch visit order, across Reset reuse.
func FuzzOutboxRouting(f *testing.F) {
	f.Add([]byte("dense-routing"))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 250, 251, 252})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		alg := algos.NewSSSPBF([]graph.VertexID{0, 1})
		mw := alg.MsgWidth()
		r := &fzr{data: data}

		const idSpace = 64
		ob := NewOutbox(alg, idSpace, mw)

		for round := 0; round < 2; round++ {
			ob.Reset(alg)
			var ref mapOutbox

			nOps := int(r.byte()) % 64
			msg := make([]float64, mw)
			for op := 0; op < nOps; op++ {
				id := graph.VertexID(int(r.byte()) % idSpace)
				for k := range msg {
					// Finite non-negative values: SSSP merges by min, so
					// the reference merge is bit-exact.
					msg[k] = float64(r.u32())
				}
				ob.Add(alg, id, msg)
				ref.add(alg, id, msg)
			}
			ref.check(t, ob)
		}
	})
}

// FuzzInboxFromMap checks the legacy map → dense inbox bridge against
// direct Merge calls: identical accumulators for any message set, and a
// loud error — never silent misdelivery — for ids outside the master
// list.
func FuzzInboxFromMap(f *testing.F) {
	f.Add([]byte("masters"))
	f.Add([]byte{1, 3, 5, 7, 9, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		alg := algos.NewSSSPBF([]graph.VertexID{0})
		mw := alg.MsgWidth()
		r := &fzr{data: data}

		// Ascending masters over a sparse id space.
		nM := 1 + int(r.byte())%16
		masters := make([]graph.VertexID, nM)
		next := graph.VertexID(0)
		for i := range masters {
			next += 1 + graph.VertexID(r.byte()%4)
			masters[i] = next
		}
		row := make(map[graph.VertexID]int32, nM)
		for i, v := range masters {
			row[v] = int32(i)
		}

		incoming := make(map[graph.VertexID][]float64)
		direct := NewInbox(alg, nM, mw)
		nMsgs := int(r.byte()) % 24
		stray := false
		msg := make([]float64, mw)
		for i := 0; i < nMsgs; i++ {
			id := masters[int(r.byte())%nM]
			if r.byte()%8 == 0 { // occasionally target a non-master
				id++
				if _, isMaster := row[id]; !isMaster {
					stray = true
				}
			}
			for k := range msg {
				msg[k] = float64(r.u32())
			}
			acc, ok := incoming[id]
			if !ok {
				acc = make([]float64, mw)
				alg.MergeIdentity(acc)
				incoming[id] = acc
			}
			alg.MSGMerge(acc, msg)
			if mi, isMaster := row[id]; isMaster {
				direct.Merge(alg, mi, msg)
			}
		}

		in, err := InboxFromMap(alg, masters, mw, incoming)
		if stray {
			if err == nil {
				t.Fatal("message for a non-master accepted silently")
			}
			return
		}
		if err != nil {
			t.Fatalf("valid message map rejected: %v", err)
		}
		if in.Len() != direct.Len() {
			t.Fatalf("bridge holds %d rows, direct %d", in.Len(), direct.Len())
		}
		for mi := int32(0); mi < int32(nM); mi++ {
			if !bitsEq(in.Row(mi), direct.Row(mi)) {
				t.Fatalf("master row %d: bridge %v, direct %v", mi, in.Row(mi), direct.Row(mi))
			}
		}
	})
}
