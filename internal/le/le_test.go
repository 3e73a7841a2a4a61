package le

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gxplug/internal/graph"
)

// putLoop and getLoop are the per-value loops Put and Get replaced —
// gxplug's putF64s/getF64s before they copied a row's memory image, and
// ingest's put*/get* helpers — one value at a time through its bits.
func putLoop[T Value](dst []byte, vals []T) {
	switch vs := any(vals).(type) {
	case []graph.VertexID:
		for i, v := range vs {
			binary.LittleEndian.PutUint32(dst[4*i:], uint32(v))
		}
	case []int64:
		for i, v := range vs {
			binary.LittleEndian.PutUint64(dst[8*i:], uint64(v))
		}
	case []float64:
		for i, v := range vs {
			binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
		}
	default:
		panic(fmt.Sprintf("putLoop: %T", vals))
	}
}

func getLoop[T Value](dst []T, src []byte) {
	switch ds := any(dst).(type) {
	case []graph.VertexID:
		for i := range ds {
			ds[i] = graph.VertexID(binary.LittleEndian.Uint32(src[4*i:]))
		}
	case []int64:
		for i := range ds {
			ds[i] = int64(binary.LittleEndian.Uint64(src[8*i:]))
		}
	case []float64:
		for i := range ds {
			ds[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
		}
	default:
		panic(fmt.Sprintf("getLoop: %T", dst))
	}
}

// bitsOf is v's memory image as an integer, so that NaNs compare by
// their payloads.
func bitsOf[T Value](v T) uint64 {
	var b [8]byte
	putLoop(b[:], []T{v})
	return binary.LittleEndian.Uint64(b[:])
}

// TestCodecMatchesLoop holds Put and Get to the per-value loops byte for
// byte, for vertex ids, int64s and float64s: random bit patterns mixed
// with each type's edge values (for float64, quiet and signalling NaNs
// with payloads, ±0, ±Inf and subnormals), every length from 0 to 64
// (both sides of copyMin), and the wire bytes at every offset 0–7 inside
// a larger buffer, whose bytes outside the Size·n written or read must
// stay as they were.
func TestCodecMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	t.Run("VertexID", func(t *testing.T) {
		checkCodec(t, rng, []graph.VertexID{0, 1, math.MaxUint32, math.MaxUint32 - 1, 1 << 31},
			func() graph.VertexID { return graph.VertexID(rng.Uint32()) })
	})
	t.Run("int64", func(t *testing.T) {
		checkCodec(t, rng, []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 1 << 32},
			func() int64 { return int64(rng.Uint64()) })
	})
	t.Run("float64", func(t *testing.T) {
		var special []float64
		for _, b := range []uint64{
			0x7FF8000000000000, 0x7FF8DEADBEEF0001, 0xFFFC000000000123, // quiet NaNs
			0x7FF0000000000001, 0x7FF4000000C0FFEE, 0xFFF0000000000002, // signalling NaNs
			0x0000000000000000, 0x8000000000000000, // ±0
			0x7FF0000000000000, 0xFFF0000000000000, // ±Inf
			0x0000000000000001, 0x000FFFFFFFFFFFFF, 0x8000000000000001, 0x800FFFFFFFFFFFFF, // subnormals
		} {
			special = append(special, math.Float64frombits(b))
		}
		checkCodec(t, rng, special, func() float64 { return math.Float64frombits(rng.Uint64()) })
	})
}

func checkCodec[T Value](t *testing.T, rng *rand.Rand, special []T, random func() T) {
	size := Size[T]()
	value := func() T {
		if rng.Intn(3) == 0 {
			return special[rng.Intn(len(special))]
		}
		return random()
	}
	const pad = 16
	for n := 0; n <= 64; n++ {
		for off := 0; off < 8; off++ {
			vals := make([]T, n)
			for i := range vals {
				vals[i] = value()
			}
			got := make([]byte, off+size*n+pad)
			rng.Read(got)
			want := bytes.Clone(got)
			Put(got[off:], vals)
			putLoop(want[off:], vals)
			if !bytes.Equal(got, want) {
				t.Fatalf("Put, %d values at offset %d: bytes differ from the loop's", n, off)
			}

			// Read them back into a window of a larger row, past which the
			// row's values must stay as they were.
			gotV, wantV := make([]T, n+2), make([]T, n+2)
			for i := range gotV {
				gotV[i] = value()
			}
			copy(wantV, gotV)
			Get(gotV[1:n+1], got[off:])
			getLoop(wantV[1:n+1], want[off:])
			for i := range gotV {
				if bitsOf(gotV[i]) != bitsOf(wantV[i]) {
					t.Fatalf("Get, %d values at offset %d: value %d is %#x, the loop's %#x", n, off, i, bitsOf(gotV[i]), bitsOf(wantV[i]))
				}
			}
			for i, v := range vals {
				if bitsOf(gotV[i+1]) != bitsOf(v) {
					t.Fatalf("%d values at offset %d: value %d does not round-trip", n, off, i)
				}
			}
		}
	}
}

// BenchmarkCodec times Put and Get against the per-value loop by array
// length, at an odd byte offset as in a segment. It sets copyMin.
// Measured with the cutoff at 1 on a 2-CPU x86-64 host (Go 1.24), float64
// put ns/op copy vs loop: about 11 vs 12 at 1 value, 13 vs 13 at 2, 10–12
// vs 10–16 at 3 (the two trade places between runs), 8 vs 14 at 8, 14 vs
// 91 at 64, 134 vs 1705 at 1024; vertex ids alike.
func BenchmarkCodec(b *testing.B) {
	benchCodec(b, func(i int) float64 { return float64(i) + 0.5 })
	benchCodec(b, func(i int) graph.VertexID { return graph.VertexID(i) })
}

func benchCodec[T Value](b *testing.B, at func(int) T) {
	for _, n := range []int{1, 2, 3, 4, 8, 64, 1024} {
		vals := make([]T, n)
		for i := range vals {
			vals[i] = at(i)
		}
		buf := make([]byte, Size[T]()*n+1)
		for _, c := range []struct {
			name string
			put  func([]byte, []T)
			get  func([]T, []byte)
		}{{"codec", Put[T], Get[T]}, {"loop", putLoop[T], getLoop[T]}} {
			b.Run(fmt.Sprintf("%T/put/n=%d/%s", vals[0], n, c.name), func(b *testing.B) {
				b.SetBytes(int64(len(buf) - 1))
				for range b.N {
					c.put(buf[1:], vals)
				}
			})
			b.Run(fmt.Sprintf("%T/get/n=%d/%s", vals[0], n, c.name), func(b *testing.B) {
				b.SetBytes(int64(len(buf) - 1))
				for range b.N {
					c.get(vals, buf[1:])
				}
			})
		}
	}
}
