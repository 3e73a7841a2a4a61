package ingest

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"strconv"

	"gxplug/internal/graph"
)

// The binary batch-stream format (.gxb), version 1: a timestamped
// sequence of edge batches, the on-disk form of the dynamic-graph
// scenario axis. Everything is little-endian and the hardening
// discipline matches the snapshot codec: CRC-checked header and
// payload, bounded chunked decoding (a lying count cannot force a large
// allocation), trailing bytes rejected, errors never panics.
//
//	header (28 bytes):
//	  [ 0: 6] magic "GXBATC"
//	  [ 6: 8] version  uint16 (= 1)
//	  [ 8:16] batches  uint64
//	  [16:24] reserved (zero)
//	  [24:28] header CRC32-Castagnoli over bytes [0:24]
//	payload, per batch:
//	  time     int64   (strictly increasing across batches)
//	  adds     uint32
//	  removes  uint32
//	  adds×    (src uint32, dst uint32, weight float64)
//	  removes× (src uint32, dst uint32)
//	footer (4 bytes):
//	  payload CRC32-Castagnoli
const (
	batchMagic   = "GXBATC"
	batchVersion = 1

	addRecBytes    = 16
	removeRecBytes = 8
)

// SaveBatchStream writes the batches as a version-1 .gxb stream. Batch
// times must be strictly increasing; the encoding is frozen — the same
// batches always produce the same bytes.
func SaveBatchStream(w io.Writer, batches []graph.EdgeBatch) error {
	if err := validateBatchTimes(batches); err != nil {
		return err
	}
	var hdr [headerLen]byte
	copy(hdr[0:6], batchMagic)
	binary.LittleEndian.PutUint16(hdr[6:8], batchVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(batches)))
	binary.LittleEndian.PutUint32(hdr[24:28], crc32Checksum(hdr[0:24]))

	bw := newSnapshotWriter(w)
	if _, err := bw.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("ingest: batch-stream header: %w", err)
	}
	for i, b := range batches {
		if len(b.Adds) > math.MaxUint32 || len(b.Removes) > math.MaxUint32 {
			return fmt.Errorf("ingest: batch %d has %d adds / %d removes (want < 2^32)",
				i, len(b.Adds), len(b.Removes))
		}
		var pre [16]byte
		binary.LittleEndian.PutUint64(pre[0:8], uint64(b.Time))
		binary.LittleEndian.PutUint32(pre[8:12], uint32(len(b.Adds)))
		binary.LittleEndian.PutUint32(pre[12:16], uint32(len(b.Removes)))
		if _, err := bw.tee.Write(pre[:]); err != nil {
			return fmt.Errorf("ingest: batch %d: %w", i, err)
		}
		if err := writeBatchEdges(bw.tee, b.Adds, bw.scratch, true); err != nil {
			return fmt.Errorf("ingest: batch %d adds: %w", i, err)
		}
		if err := writeBatchEdges(bw.tee, b.Removes, bw.scratch, false); err != nil {
			return fmt.Errorf("ingest: batch %d removes: %w", i, err)
		}
	}
	return bw.finish()
}

// SaveBatchStreamFile writes a .gxb file.
func SaveBatchStreamFile(path string, batches []graph.EdgeBatch) error {
	return saveFileWith(path, func(w io.Writer) error { return SaveBatchStream(w, batches) })
}

func writeBatchEdges(w io.Writer, edges []graph.Edge, scratch []byte, weighted bool) error {
	rec := removeRecBytes
	if weighted {
		rec = addRecBytes
	}
	per := len(scratch) / rec
	for len(edges) > 0 {
		n := min(len(edges), per)
		for i := 0; i < n; i++ {
			off := i * rec
			binary.LittleEndian.PutUint32(scratch[off:], uint32(edges[i].Src))
			binary.LittleEndian.PutUint32(scratch[off+4:], uint32(edges[i].Dst))
			if weighted {
				binary.LittleEndian.PutUint64(scratch[off+8:], math.Float64bits(edges[i].Weight))
			}
		}
		if _, err := w.Write(scratch[:n*rec]); err != nil {
			return err
		}
		edges = edges[n:]
	}
	return nil
}

// LoadBatchStream decodes one .gxb stream from r. It validates magic,
// version, both checksums, the strictly-increasing time invariant and
// the absence of trailing bytes; buffers grow only as bytes actually
// arrive, so hostile counts cannot force large allocations.
func LoadBatchStream(r io.Reader) ([]graph.EdgeBatch, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("ingest: batch-stream header: %w", noEOF(err))
	}
	if string(hdr[0:6]) != batchMagic {
		return nil, fmt.Errorf("ingest: bad batch-stream magic %q", hdr[0:6])
	}
	if v := binary.LittleEndian.Uint16(hdr[6:8]); v != batchVersion {
		return nil, fmt.Errorf("ingest: batch-stream version %d (supported: %d)", v, batchVersion)
	}
	if got, want := crc32Checksum(hdr[0:24]), binary.LittleEndian.Uint32(hdr[24:28]); got != want {
		return nil, fmt.Errorf("ingest: batch-stream header checksum %08x, recorded %08x", got, want)
	}
	count64 := binary.LittleEndian.Uint64(hdr[8:16])
	if count64 > math.MaxInt64/16 {
		return nil, fmt.Errorf("ingest: batch-stream batch count %d overflows", count64)
	}

	crc := crc32.New(castagnoli)
	pr := io.TeeReader(r, crc)
	scratch := make([]byte, chunkBytes)

	batches := make([]graph.EdgeBatch, 0, min(count64, 1024))
	for i := uint64(0); i < count64; i++ {
		var pre [16]byte
		if _, err := io.ReadFull(pr, pre[:]); err != nil {
			return nil, fmt.Errorf("ingest: batch %d header: %w", i, noEOF(err))
		}
		b := graph.EdgeBatch{Time: int64(binary.LittleEndian.Uint64(pre[0:8]))}
		addCount := int64(binary.LittleEndian.Uint32(pre[8:12]))
		removeCount := int64(binary.LittleEndian.Uint32(pre[12:16]))
		var err error
		if b.Adds, err = readBatchEdges(pr, addCount, scratch, true); err != nil {
			return nil, fmt.Errorf("ingest: batch %d adds: %w", i, err)
		}
		if b.Removes, err = readBatchEdges(pr, removeCount, scratch, false); err != nil {
			return nil, fmt.Errorf("ingest: batch %d removes: %w", i, err)
		}
		batches = append(batches, b)
	}
	if err := validateBatchTimes(batches); err != nil {
		return nil, err
	}

	var foot [4]byte
	if _, err := io.ReadFull(r, foot[:]); err != nil {
		return nil, fmt.Errorf("ingest: batch-stream footer: %w", noEOF(err))
	}
	if got, want := crc.Sum32(), binary.LittleEndian.Uint32(foot[:]); got != want {
		return nil, fmt.Errorf("ingest: batch-stream payload checksum %08x, recorded %08x", got, want)
	}
	if n, _ := r.Read(scratch[:1]); n != 0 {
		return nil, fmt.Errorf("ingest: trailing bytes after batch-stream footer")
	}
	return batches, nil
}

func readBatchEdges(r io.Reader, count int64, scratch []byte, weighted bool) ([]graph.Edge, error) {
	if count == 0 {
		return nil, nil
	}
	rec := removeRecBytes
	if weighted {
		rec = addRecBytes
	}
	per := int64(len(scratch) / rec)
	out := make([]graph.Edge, 0, min(count, per))
	for read := int64(0); read < count; {
		n := min(count-read, per)
		buf := scratch[:n*int64(rec)]
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, noEOF(err)
		}
		for i := int64(0); i < n; i++ {
			off := i * int64(rec)
			e := graph.Edge{
				Src:    graph.VertexID(binary.LittleEndian.Uint32(buf[off:])),
				Dst:    graph.VertexID(binary.LittleEndian.Uint32(buf[off+4:])),
				Weight: 1,
			}
			if weighted {
				e.Weight = math.Float64frombits(binary.LittleEndian.Uint64(buf[off+8:]))
			}
			out = append(out, e)
		}
		read += n
	}
	return out, nil
}

// LoadBatchStreamFile loads a .gxb file. Gzip-compressed streams are
// detected by content (the two-byte gzip magic) and decompressed
// transparently, exactly like edge lists.
func LoadBatchStreamFile(path string) ([]graph.EdgeBatch, error) {
	return parseFile(path, LoadBatchStream)
}

// parseFile is the one reader of every input file: it opens path,
// decompresses the content when it starts with the gzip magic, parses
// it, and prefixes a parse error with the path.
func parseFile[T any](path string, parse func(io.Reader) (T, error)) (T, error) {
	var zero T
	f, err := os.Open(path)
	if err != nil {
		return zero, fmt.Errorf("ingest: %w", err)
	}
	defer f.Close()
	r, closeGz, err := maybeGzip(path, f)
	if err != nil {
		return zero, err
	}
	defer closeGz()
	v, err := parse(r)
	if err != nil {
		return zero, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}

// maybeGzip wraps f in a gzip reader when its content starts with the
// gzip magic; the returned close func releases the decompressor (a
// no-op for plain files).
func maybeGzip(path string, f *os.File) (io.Reader, func(), error) {
	br := bufio.NewReaderSize(f, chunkBytes)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: ingest: gzip: %w", path, err)
		}
		return zr, func() { zr.Close() }, nil
	}
	return br, func() {}, nil
}

// IsBatchStream reports whether the file at path holds a .gxb stream —
// directly or gzip-compressed — by sniffing content, never extensions.
func IsBatchStream(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, fmt.Errorf("ingest: %w", err)
	}
	defer f.Close()
	r, closeGz, err := maybeGzip(path, f)
	if err != nil {
		return false, nil // not valid gzip: certainly not a compressed stream
	}
	defer closeGz()
	var magic [len(batchMagic)]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return false, nil // shorter than the magic: not a batch stream
	}
	return string(magic[:]) == batchMagic, nil
}

// validateBatchTimes enforces the stream invariant: timestamps strictly
// increase batch to batch.
func validateBatchTimes(batches []graph.EdgeBatch) error {
	for i := 1; i < len(batches); i++ {
		if batches[i].Time <= batches[i-1].Time {
			return fmt.Errorf("ingest: batch %d time %d not after batch %d time %d",
				i, batches[i].Time, i-1, batches[i-1].Time)
		}
	}
	return nil
}

// ParseBatchList reads timestamped edge-list deltas — the text source
// .gxb streams are built from. Each line is
//
//	TIME + src dst [weight]   (add; weight defaults to 1)
//	TIME - src dst            (remove)
//
// with '#' comments and blank lines ignored. Consecutive lines sharing
// a timestamp form one batch; timestamps must be non-decreasing down
// the file and strictly increasing batch to batch.
func ParseBatchList(r io.Reader) ([]graph.EdgeBatch, error) {
	sc := newLineScanner(r)
	var batches []graph.EdgeBatch
	var f [][]byte
	for line := 1; sc.Scan(); line++ {
		f = splitFields(f, sc.Bytes())
		if len(f) == 0 || f[0][0] == '#' {
			continue
		}
		if len(f) < 4 {
			return nil, fmt.Errorf("ingest: line %d: want 'TIME +|- src dst [w]', got %q", line, bytes.TrimSpace(sc.Bytes()))
		}
		ts, err := parseInt(f[0])
		if err != nil {
			return nil, fmt.Errorf("ingest: line %d: bad timestamp: %v", line, err)
		}
		op := f[1]
		if len(op) != 1 || op[0] != '+' && op[0] != '-' {
			return nil, fmt.Errorf("ingest: line %d: op %q (want + or -)", line, op)
		}
		src, err := parseUint32(f[2])
		if err != nil {
			return nil, fmt.Errorf("ingest: line %d: bad src: %v", line, err)
		}
		dst, err := parseUint32(f[3])
		if err != nil {
			return nil, fmt.Errorf("ingest: line %d: bad dst: %v", line, err)
		}
		w := 1.0
		if len(f) >= 5 {
			if op[0] == '-' {
				return nil, fmt.Errorf("ingest: line %d: removes take no weight", line)
			}
			if w, err = strconv.ParseFloat(string(f[4]), 64); err != nil {
				return nil, fmt.Errorf("ingest: line %d: bad weight: %v", line, err)
			}
		}
		switch {
		case len(batches) == 0 || ts > batches[len(batches)-1].Time:
			batches = append(batches, graph.EdgeBatch{Time: ts})
		case ts < batches[len(batches)-1].Time:
			return nil, fmt.Errorf("ingest: line %d: timestamp %d before batch time %d",
				line, ts, batches[len(batches)-1].Time)
		}
		b := &batches[len(batches)-1]
		e := graph.Edge{Src: graph.VertexID(src), Dst: graph.VertexID(dst), Weight: w}
		if op[0] == '+' {
			b.Adds = append(b.Adds, e)
		} else {
			b.Removes = append(b.Removes, e)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ingest: scan: %w", err)
	}
	return batches, nil
}

// ParseBatchListFile is ParseBatchList over a (possibly gzipped) file.
func ParseBatchListFile(path string) ([]graph.EdgeBatch, error) {
	return parseFile(path, ParseBatchList)
}
