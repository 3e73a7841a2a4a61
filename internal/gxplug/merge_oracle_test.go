package gxplug

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"

	"gxplug/internal/algos"
	"gxplug/internal/device"
	"gxplug/internal/graph"
	"gxplug/internal/gxplug/template"
)

// foldOracle is genKernel.fold before it folded by the declared merge
// operator, verbatim apart from the name: MSGMerge per received row.
func (k *genKernel) foldOracle(int) error {
	alg, msgW, nV := k.alg, k.blk.msgW, k.blk.nV
	acc := grow(&k.acc, nV*msgW)
	recv := grow(&k.recv, nV)
	for r := 0; r < nV; r++ {
		alg.MergeIdentity(acc[r*msgW : (r+1)*msgW])
		recv[r] = false
	}
	for c := 0; c < k.nChunks; c++ {
		partAcc := k.partAcc[c*(nV+1)*msgW:]
		partRecv := k.partRecv[c*nV:]
		for r := 0; r < nV; r++ {
			if partRecv[r] {
				alg.MSGMerge(acc[r*msgW:(r+1)*msgW], partAcc[r*msgW:(r+1)*msgW])
				recv[r] = true
			}
		}
	}
	return nil
}

// computeMergeOracle is computeMerge before it folded by the declared
// merge operator and before the Merge block had a layout, verbatim apart
// from names: MSGMerge per row, and the cursor codec, cost word included.
func (d *daemonState) computeMergeOracle(seg []byte) (time.Duration, error) {
	accA, accB, msgW, _, err := decodeMergeBlockOracle(seg, &d.dec)
	if err != nil {
		return 0, err
	}
	alg := d.cfg.alg
	rows := len(accA) / msgW
	cost, err := d.cfg.dev.Launch(rows,
		int64(len(accA)+len(accB))*8, int64(len(accA))*8,
		float64(msgW),
		func(start, end int) {
			for r := start; r < end; r++ {
				alg.MSGMerge(accA[r*msgW:(r+1)*msgW], accB[r*msgW:(r+1)*msgW])
			}
		})
	if err != nil {
		return 0, err
	}
	writeMergeResultOracle(seg, accA, uint64(cost))
	return cost, nil
}

// TestMergeKernelMatchesOracle runs the daemon's merge kernel and the
// per-row MSGMerge loop it replaced over the same merge blocks, for every
// built-in, and compares the segments they leave byte for byte up to the
// block's end (the merged rows), and the cost each charged. Values include ±0, ±Inf and NaN, and a block
// spans several device grains, so a launch folds several row ranges.
func TestMergeKernelMatchesOracle(t *testing.T) {
	srcs := []graph.VertexID{1, 2, 3}
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1, -1, 2}
	for _, alg := range []template.Algorithm{
		algos.NewPageRank(), algos.NewCC(), algos.NewLP(),
		algos.NewKHopBFS(srcs, 5), algos.NewKCore(3), algos.NewSSSPBF(srcs),
	} {
		t.Run(alg.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(alg.MsgWidth())))
			msgW := alg.MsgWidth()
			for _, rows := range []int{0, 1, 3*device.Grain + 17} {
				accA, accB := make([]float64, rows*msgW), make([]float64, rows*msgW)
				for i := range accA {
					accA[i], accB[i] = special[rng.Intn(len(special))], rng.NormFloat64()
					if rng.Intn(3) == 0 {
						accB[i] = special[rng.Intn(len(special))]
					}
				}
				got := make([]byte, mergeBlockSize(rows, msgW))
				l, err := encodeMergeBlock(got, accA, accB, msgW)
				if err != nil {
					t.Fatal(err)
				}
				want := bytes.Clone(got)
				dev := device.New(device.Xeon20())
				dev.Init()
				d := &daemonState{cfg: daemonConfig{dev: dev, alg: alg}}
				cost, err := d.computeMerge(got)
				if err != nil {
					t.Fatal(err)
				}
				wantCost, err := d.computeMergeOracle(want)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got[:l.end], want[:l.end]) || cost != wantCost {
					t.Fatalf("%d rows: merged segment differs from the oracle's, or cost %v, oracle %v", rows, cost, wantCost)
				}
			}
		})
	}
}
