// Package le is the tree's one little-endian array codec. Every binary
// format here lays an array out as its values' little-endian bytes, back
// to back: the snapshot's CSR arrays and typed sections, the
// shared-memory blocks' vertex ids and rows (the data packager of
// §IV-B1), and the attribute digest. Put and Get move such an array, and
// this package is the only one in the tree that imports unsafe.
package le

import (
	"encoding/binary"
	"unsafe"
)

// Value is a type whose arrays Put and Get move: 4 wire bytes per
// ~uint32 value, 8 per ~int64 value or ~float64 value's bits.
type Value interface {
	~uint32 | ~int64 | ~float64
}

// native reports whether this host lays a value out as the wire does: in
// little-endian byte order. Then an array's memory image is its wire
// form, and Put and Get move it with one copy.
var native = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// copyMin is the shortest array Put and Get move as one copy of its
// memory image: below it the per-value loop costs less than the call to
// memmove (BenchmarkCodec).
const copyMin = 3

// Size returns the wire bytes of one T: 4 or 8.
func Size[T Value]() int {
	var v T
	return int(unsafe.Sizeof(v))
}

// image is the memory image of vals, unsafe.Slice over its Size·len bytes.
func image[T Value](vals []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), Size[T]()*len(vals))
}

// Put writes vals little-endian into the first Size·len(vals) bytes of
// dst, and nothing past them.
func Put[T Value](dst []byte, vals []T) {
	size := Size[T]()
	dst = dst[:size*len(vals)]
	if native && len(vals) >= copyMin {
		copy(dst, image(vals))
		return
	}
	for i := range vals {
		p := unsafe.Pointer(&vals[i])
		if size == 4 {
			binary.LittleEndian.PutUint32(dst[4*i:], *(*uint32)(p))
		} else {
			binary.LittleEndian.PutUint64(dst[8*i:], *(*uint64)(p))
		}
	}
}

// Get reads len(dst) little-endian values from the first Size·len(dst)
// bytes of src into dst.
func Get[T Value](dst []T, src []byte) {
	size := Size[T]()
	src = src[:size*len(dst)]
	if native && len(dst) >= copyMin {
		copy(image(dst), src)
		return
	}
	for i := range dst {
		p := unsafe.Pointer(&dst[i])
		if size == 4 {
			*(*uint32)(p) = binary.LittleEndian.Uint32(src[4*i:])
		} else {
			*(*uint64)(p) = binary.LittleEndian.Uint64(src[8*i:])
		}
	}
}
