package gx

import (
	"fmt"
	"math"
	"time"

	"gxplug/internal/gen/ingest"
)

// Checkpoint persistence: a [CheckpointState] and the graph it belongs
// to are stored together as one snapshot-v2 file — the graph in the
// CSR arrays, the state in typed sections — behind the snapshot
// format's CRC/versioning discipline. A checkpoint file is a valid
// graph snapshot: `file+snapshot:` references and gxgen read the CSR
// part of one like any other snapshot.

// SaveCheckpoint atomically writes the graph and checkpoint state to
// path as a version-2 snapshot (written to a temp file and renamed
// over path, fsync-free), so a crash or a failed save leaves the
// previous checkpoint intact.
func SaveCheckpoint(path string, g *Graph, st *CheckpointState) error {
	if g == nil || st == nil {
		return fmt.Errorf("gx: save checkpoint: nil graph or state")
	}
	secs, err := encodeCheckpoint(st)
	if err != nil {
		return fmt.Errorf("gx: save checkpoint: %w", err)
	}
	if err := ingest.SaveV2File(path, g, secs); err != nil {
		return fmt.Errorf("gx: save checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads a checkpoint file back: the graph, bit-identical
// to the one saved, and the state to hand to [Resume] (with the graph
// via [WithGraph]). Malformed or cross-shaped files error; they never
// produce a partially-restored state.
func LoadCheckpoint(path string) (*Graph, *CheckpointState, error) {
	g, secs, err := ingest.LoadSnapshotV2File(path)
	if err != nil {
		return nil, nil, fmt.Errorf("gx: load checkpoint: %w", err)
	}
	st, err := decodeCheckpoint(secs)
	if err != nil {
		return nil, nil, fmt.Errorf("gx: load checkpoint %s: %w", path, err)
	}
	n := g.NumVertices()
	if len(st.Active) != n || len(st.Attrs) != n*st.AttrWidth {
		return nil, nil, fmt.Errorf("gx: load checkpoint %s: state for %d vertices does not fit graph with %d",
			path, len(st.Active), n)
	}
	return g, st, nil
}

// encodeCheckpoint maps the state onto snapshot-v2 sections.
func encodeCheckpoint(st *CheckpointState) ([]ingest.Section, error) {
	if st.AttrWidth <= 0 || len(st.Attrs)%st.AttrWidth != 0 {
		return nil, fmt.Errorf("attr width %d for %d attrs", st.AttrWidth, len(st.Attrs))
	}
	engState := []int64{int64(st.Skipped), int64(st.Barriers), b2i(st.HasCarry), b2i(st.Done)}
	clocks := make([]int64, 0, 3*len(st.Nodes))
	for _, nc := range st.Nodes {
		clocks = append(clocks, int64(nc.Clock), int64(nc.Upper), int64(nc.Middleware))
	}
	return []ingest.Section{
		{Kind: ingest.SectionVertexAttrs, Data: ingest.EncodeVertexAttrs(st.AttrWidth, st.Attrs)},
		{Kind: ingest.SectionActive, Data: ingest.EncodeBools(st.Active)},
		{Kind: ingest.SectionIteration, Data: ingest.EncodeUint64(uint64(st.Iteration))},
		{Kind: ingest.SectionEngineState, Data: ingest.EncodeInt64s(engState)},
		{Kind: ingest.SectionClocks, Data: ingest.EncodeInt64s(clocks)},
	}, nil
}

// decodeCheckpoint rebuilds the state from a v2 snapshot's sections.
func decodeCheckpoint(secs []ingest.Section) (*CheckpointState, error) {
	st := &CheckpointState{}
	var haveAttrs, haveActive, haveIter, haveEng, haveClocks bool
	for _, sec := range secs {
		var err error
		switch sec.Kind {
		case ingest.SectionVertexAttrs:
			st.AttrWidth, st.Attrs, err = ingest.DecodeVertexAttrs(sec.Data)
			haveAttrs = true
		case ingest.SectionActive:
			st.Active, err = ingest.DecodeBools(sec.Data)
			haveActive = true
		case ingest.SectionIteration:
			var it uint64
			it, err = ingest.DecodeUint64(sec.Data)
			if err == nil && it > math.MaxInt32 {
				err = fmt.Errorf("iteration %d out of range", it)
			}
			st.Iteration = int(it)
			haveIter = true
		case ingest.SectionEngineState:
			var vals []int64
			if vals, err = ingest.DecodeInt64s(sec.Data); err == nil {
				if len(vals) != 4 {
					err = fmt.Errorf("engine-state section has %d values (want 4)", len(vals))
					break
				}
				if vals[0] < 0 || vals[1] < 0 {
					err = fmt.Errorf("negative engine-state counters %v", vals[:2])
					break
				}
				st.Skipped, st.Barriers = int(vals[0]), int(vals[1])
				st.HasCarry, st.Done = vals[2] != 0, vals[3] != 0
			}
			haveEng = true
		case ingest.SectionClocks:
			var vals []int64
			if vals, err = ingest.DecodeInt64s(sec.Data); err == nil {
				if len(vals)%3 != 0 {
					err = fmt.Errorf("clocks section has %d values (want a multiple of 3)", len(vals))
					break
				}
				st.Nodes = make([]NodeClock, len(vals)/3)
				for j := range st.Nodes {
					st.Nodes[j] = NodeClock{
						Clock:      time.Duration(vals[3*j]),
						Upper:      time.Duration(vals[3*j+1]),
						Middleware: time.Duration(vals[3*j+2]),
					}
				}
			}
			haveClocks = true
		default:
			// A kind the snapshot format gains later that a checkpoint
			// does not use.
			err = fmt.Errorf("unexpected %v section in a checkpoint", sec.Kind)
		}
		if err != nil {
			return nil, err
		}
	}
	if !haveAttrs || !haveActive || !haveIter || !haveEng || !haveClocks {
		return nil, fmt.Errorf("checkpoint sections incomplete (attrs=%v active=%v iteration=%v engine-state=%v clocks=%v)",
			haveAttrs, haveActive, haveIter, haveEng, haveClocks)
	}
	return st, nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
