package ingest

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"gxplug/internal/graph"
)

// Snapshot format version 2 extends version 1 with optional typed
// payload sections, the persistence substrate for engine checkpoints.
// The layout keeps the v1 discipline intact: the same 28-byte header
// (version = 2), the same six CSR arrays, and the same CRC32-Castagnoli
// footer over the whole payload — sections simply join the payload
// between the CSR arrays and the footer:
//
//	sections:
//	  count      uint32 (≤ maxSections)
//	  repeated count times:
//	    kind     uint32 (known SectionKind, no duplicates)
//	    length   uint64 (payload bytes)
//	    payload  length bytes
//
// Version-1 files contain none of this and keep loading bit-identically
// through the same decoder; version-2 files with zero sections differ
// from v1 only in the version field and the 4-byte count. Decoding is
// hardened like the rest of the format: truncation, duplicate or
// unknown kinds, lying lengths and checksum damage all error — never
// panic — and counts are held to the input's byte size before anything
// is allocated: each section claims at most the bytes left before the
// footer, and the sections end exactly at it.
const (
	snapshotVersion2 = 2

	// maxSections bounds the section table; the engine checkpoint uses
	// five kinds, so 64 leaves generous headroom without letting a
	// corrupt count force a long parse.
	maxSections = 64
)

// SectionKind identifies the typed payload a snapshot section carries.
type SectionKind uint32

const (
	// SectionVertexAttrs holds per-vertex attribute state: a uint32
	// width followed by width × numVertices float64s, vertex-major.
	SectionVertexAttrs SectionKind = 1
	// Kind 2 is unassigned: a section carrying it fails as an unknown
	// kind.

	// SectionIteration holds the superstep counter as one uint64.
	SectionIteration SectionKind = 3
	// SectionActive holds the frontier as one byte (0/1) per vertex.
	SectionActive SectionKind = 4
	// SectionClocks holds per-node virtual clocks as int64 nanosecond
	// triples (total, upper bucket, middleware bucket).
	SectionClocks SectionKind = 5
	// SectionEngineState holds engine loop counters as int64s
	// (skipped syncs, barrier count, carry flag, done flag).
	SectionEngineState SectionKind = 6
)

func (k SectionKind) String() string {
	switch k {
	case SectionVertexAttrs:
		return "vertex-attrs"
	case SectionIteration:
		return "iteration"
	case SectionActive:
		return "active"
	case SectionClocks:
		return "clocks"
	case SectionEngineState:
		return "engine-state"
	default:
		return fmt.Sprintf("kind-%d", uint32(k))
	}
}

func (k SectionKind) known() bool {
	switch k {
	case SectionVertexAttrs, SectionIteration, SectionActive, SectionClocks, SectionEngineState:
		return true
	}
	return false
}

// Section is one typed payload section of a version-2 snapshot.
type Section struct {
	Kind SectionKind
	Data []byte
}

// SaveV2 writes g as a version-2 snapshot carrying the given sections.
// Section kinds must be known and unique. Like Save, the write streams
// through the checksum without building a payload-sized buffer.
func SaveV2(w io.Writer, g *graph.Graph, secs []Section) error {
	if len(secs) > maxSections {
		return fmt.Errorf("ingest: %d sections exceed the limit of %d", len(secs), maxSections)
	}
	seen := make(map[SectionKind]bool, len(secs))
	for _, sec := range secs {
		if !sec.Kind.known() {
			return fmt.Errorf("ingest: unknown section kind %d", uint32(sec.Kind))
		}
		if seen[sec.Kind] {
			return fmt.Errorf("ingest: duplicate section kind %v", sec.Kind)
		}
		seen[sec.Kind] = true
	}
	return saveSnapshot(w, g, snapshotVersion2, secs)
}

// writeSections writes the v2 section table SaveV2 has validated.
func writeSections(w io.Writer, secs []Section) error {
	var b [12]byte
	binary.LittleEndian.PutUint32(b[:4], uint32(len(secs)))
	if _, err := w.Write(b[:4]); err != nil {
		return fmt.Errorf("ingest: snapshot section count: %w", err)
	}
	for _, sec := range secs {
		binary.LittleEndian.PutUint32(b[0:4], uint32(sec.Kind))
		binary.LittleEndian.PutUint64(b[4:12], uint64(len(sec.Data)))
		if _, err := w.Write(b[:12]); err != nil {
			return fmt.Errorf("ingest: snapshot section %v header: %w", sec.Kind, err)
		}
		if _, err := w.Write(sec.Data); err != nil {
			return fmt.Errorf("ingest: snapshot section %v: %w", sec.Kind, err)
		}
	}
	return nil
}

// SaveV2File writes g and sections as a version-2 snapshot file.
func SaveV2File(path string, g *graph.Graph, secs []Section) error {
	return saveFileWith(path, func(w io.Writer) error { return SaveV2(w, g, secs) })
}

// readSections decodes the v2 section table from the left bytes between
// the CSR arrays and the footer. Each length is held to the bytes still
// left before its payload is allocated, and the table must use them all.
func readSections(r io.Reader, left int64) ([]Section, error) {
	var b [12]byte
	if _, err := io.ReadFull(r, b[:4]); err != nil {
		return nil, fmt.Errorf("ingest: snapshot section count: %w", noEOF(err))
	}
	left -= 4
	count := binary.LittleEndian.Uint32(b[:4])
	if count > maxSections {
		return nil, fmt.Errorf("ingest: snapshot claims %d sections (limit %d)", count, maxSections)
	}
	secs := make([]Section, 0, count)
	seen := make(map[SectionKind]bool, count)
	for i := uint32(0); i < count; i++ {
		if left < 12 {
			return nil, fmt.Errorf("ingest: snapshot section %d header: %w", i, io.ErrUnexpectedEOF)
		}
		if _, err := io.ReadFull(r, b[:12]); err != nil {
			return nil, fmt.Errorf("ingest: snapshot section %d header: %w", i, noEOF(err))
		}
		left -= 12
		kind := SectionKind(binary.LittleEndian.Uint32(b[0:4]))
		length := binary.LittleEndian.Uint64(b[4:12])
		if !kind.known() {
			return nil, fmt.Errorf("ingest: snapshot section %d: unknown kind %d", i, uint32(kind))
		}
		if seen[kind] {
			return nil, fmt.Errorf("ingest: snapshot section %d: duplicate kind %v", i, kind)
		}
		seen[kind] = true
		if length > uint64(left) {
			return nil, fmt.Errorf("ingest: snapshot section %v: length %d exceeds the %d bytes left: %w",
				kind, length, left, io.ErrUnexpectedEOF)
		}
		data := make([]byte, length)
		if _, err := io.ReadFull(r, data); err != nil {
			return nil, fmt.Errorf("ingest: snapshot section %v: %w", kind, noEOF(err))
		}
		left -= int64(length)
		secs = append(secs, Section{Kind: kind, Data: data})
	}
	if left != 0 {
		return nil, fmt.Errorf("ingest: %d trailing bytes after the snapshot sections", left)
	}
	return secs, nil
}

// Typed section payload codecs. Encoders are infallible; decoders
// validate shape and error on any mismatch, never panic.

// DecodeFloat64s decodes little-endian IEEE-754 bit patterns.
func DecodeFloat64s(data []byte) ([]float64, error) {
	if len(data)%8 != 0 {
		return nil, fmt.Errorf("ingest: float64 section is %d bytes (not a multiple of 8)", len(data))
	}
	out := make([]float64, len(data)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
	return out, nil
}

// EncodeInt64s encodes vals little-endian.
func EncodeInt64s(vals []int64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[i*8:], uint64(v))
	}
	return out
}

// DecodeInt64s is the inverse of EncodeInt64s.
func DecodeInt64s(data []byte) ([]int64, error) {
	if len(data)%8 != 0 {
		return nil, fmt.Errorf("ingest: int64 section is %d bytes (not a multiple of 8)", len(data))
	}
	out := make([]int64, len(data)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(data[i*8:]))
	}
	return out, nil
}

// EncodeUint64 encodes one uint64 little-endian.
func EncodeUint64(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}

// DecodeUint64 is the inverse of EncodeUint64.
func DecodeUint64(data []byte) (uint64, error) {
	if len(data) != 8 {
		return 0, fmt.Errorf("ingest: uint64 section is %d bytes, want 8", len(data))
	}
	return binary.LittleEndian.Uint64(data), nil
}

// EncodeBools encodes vals as one 0/1 byte each.
func EncodeBools(vals []bool) []byte {
	out := make([]byte, len(vals))
	for i, v := range vals {
		if v {
			out[i] = 1
		}
	}
	return out
}

// DecodeBools is the inverse of EncodeBools; bytes outside {0,1} error.
func DecodeBools(data []byte) ([]bool, error) {
	out := make([]bool, len(data))
	for i, b := range data {
		switch b {
		case 0:
		case 1:
			out[i] = true
		default:
			return nil, fmt.Errorf("ingest: bool section byte %d is %#02x", i, b)
		}
	}
	return out, nil
}

// EncodeVertexAttrs encodes a vertex-attribute table: a uint32 width
// followed by the vertex-major attribute values.
func EncodeVertexAttrs(width int, attrs []float64) []byte {
	out := make([]byte, 4+8*len(attrs))
	binary.LittleEndian.PutUint32(out[:4], uint32(width))
	for i, v := range attrs {
		binary.LittleEndian.PutUint64(out[4+i*8:], math.Float64bits(v))
	}
	return out
}

// DecodeVertexAttrs is the inverse of EncodeVertexAttrs. The width must
// be positive and divide the value count.
func DecodeVertexAttrs(data []byte) (int, []float64, error) {
	if len(data) < 4 {
		return 0, nil, fmt.Errorf("ingest: vertex-attrs section is %d bytes, want ≥ 4", len(data))
	}
	width := binary.LittleEndian.Uint32(data[:4])
	vals, err := DecodeFloat64s(data[4:])
	if err != nil {
		return 0, nil, err
	}
	if width == 0 || width > math.MaxInt32 {
		return 0, nil, fmt.Errorf("ingest: vertex-attrs width %d out of range", width)
	}
	if len(vals)%int(width) != 0 {
		return 0, nil, fmt.Errorf("ingest: %d attribute values not divisible by width %d", len(vals), width)
	}
	return int(width), vals, nil
}
