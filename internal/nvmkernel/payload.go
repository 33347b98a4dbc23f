package nvmkernel

import (
	"slices"
	"unsafe"
)

// Payload is one immutable version of a chunk's real payload bytes. Every
// version a workload writes whole is fully named by its chunk ID, the
// write sequence and its length, so a Payload is either that recipe,
// whose bytes are generated on demand, or a byte slice materialized by a
// partial write, a prefix copy or fault injection. Either way it is never
// written after it is built: the DRAM working copy, the NVM version slots,
// the buddy replica and the PFS share one value, and a change builds a new
// Payload. The zero Payload is no payload at all (an empty version slot).
//
// Every chunk holds several Payloads (its working copy, two version slots,
// two buddy versions), so the value is packed into 16 bytes: a pointer to
// the first materialized byte instead of a slice header, a 32-bit length,
// and of the recipe only the low byte of its generator base, the one part
// of it a generated byte depends on. A non-nil p is a materialized payload
// of n bytes; with p nil, n > 0 is a recipe and n == 0 no payload.
type Payload struct {
	p    *byte  // first materialized byte (unsafe.SliceData of the bytes)
	n    uint32 // length in bytes
	base uint8  // recipe: byte(recipeBase(id, seq))
}

// Recipe is the n-byte payload that a whole-chunk write with sequence seq
// leaves in chunk id: byte i is byte(i*2654435761 + seq*97 + id).
func Recipe(id, seq uint64, n int) Payload { return recipe(uint8(recipeBase(id, seq)), n) }

// recipe is the n-byte recipe payload with generator base byte base.
func recipe(base uint8, n int) Payload {
	if n == 0 {
		return Bytes(nil)
	}
	return Payload{n: payloadLen(n), base: base}
}

// Bytes wraps b as a payload without copying it. The caller hands b over:
// neither it nor anyone else may write b afterwards.
func Bytes(b []byte) Payload {
	if b == nil {
		b = []byte{}
	}
	// SliceData of a non-nil slice is non-nil, even at length zero.
	return Payload{p: unsafe.SliceData(b), n: payloadLen(len(b))}
}

// payloadLen is n as a Payload stores it.
func payloadLen(n int) uint32 {
	if n < 0 || uint64(n) > 1<<32-1 {
		panic("nvmkernel: payload length out of range")
	}
	return uint32(n)
}

// bytes returns a materialized payload's bytes, nil for a recipe.
func (p Payload) bytes() []byte {
	if p.p == nil {
		return nil
	}
	return unsafe.Slice(p.p, p.n)
}

// zeroPage backs Zeros for the common payload caps. It is never written.
var zeroPage [64 << 10]byte

// Zeros is the n-byte all-zero payload of a freshly allocated chunk. Up to
// 64 KiB it shares one read-only page.
func Zeros(n int) Payload {
	if n <= len(zeroPage) {
		return Bytes(zeroPage[:n:n])
	}
	return Bytes(make([]byte, n))
}

// genByte and recipeBase are the recipe generator, the one definition of a
// whole-chunk write's content pattern: byte i of recipe (id, seq) is
// genByte(i, recipeBase(id, seq)). A byte depends on the base only through
// its low eight bits, which is all a recipe Payload keeps.
func genByte(i int, base uint8) byte { return byte(uint64(i)*2654435761) + base }

func recipeBase(id, seq uint64) uint64 { return seq*97 + id }

// Valid reports whether p holds a payload: false only for the zero Payload.
func (p Payload) Valid() bool { return p.p != nil || p.n > 0 }

// Len returns the payload's length in bytes.
func (p Payload) Len() int { return int(p.n) }

// AppendTo appends the payload's bytes to dst and returns the result.
func (p Payload) AppendTo(dst []byte) []byte {
	if p.p != nil {
		return append(dst, p.bytes()...)
	}
	at, n := len(dst), int(p.n)
	dst = slices.Grow(dst, n)[:at+n]
	for i := range n {
		dst[at+i] = genByte(i, p.base)
	}
	return dst
}

// Checksum returns the FNV-64a digest of size's eight little-endian bytes
// followed by the payload's bytes: a version's checksum, bound to the
// chunk's virtual size so a size change never collides with a content
// change.
func (p Payload) Checksum(size int64) uint64 {
	return uint64(NewDigest().Uint64(uint64(size)).Payload(p))
}

// SumMemo remembers recipe checksums for one run. A recipe's checksum
// depends only on the chunk's size, the recipe's length and its base byte,
// and a run's ranks stage and restore the same few recipes over and over,
// so the memo hashes each once. A materialized payload (a partial write, a
// prefix copy, injected corruption) is always hashed in full. A nil memo,
// or one whose run ended (Drop), hashes every payload. One event engine
// owns a memo: it is not safe for concurrent use.
type SumMemo struct {
	sums map[sumKey]uint64
}

// sumKey is everything a recipe's checksum depends on.
type sumKey struct {
	size int64
	n    uint32
	base uint8
}

// NewSumMemo returns an empty memo.
func NewSumMemo() *SumMemo { return &SumMemo{sums: make(map[sumKey]uint64)} }

// Checksum returns p.Checksum(size), from the memo when p is a recipe.
func (m *SumMemo) Checksum(p Payload, size int64) uint64 {
	if m == nil || m.sums == nil || p.p != nil {
		return p.Checksum(size)
	}
	k := sumKey{size: size, n: p.n, base: p.base}
	sum, ok := m.sums[k]
	if !ok {
		sum = p.Checksum(size)
		m.sums[k] = sum
	}
	return sum
}

// Drop releases the memo's entries at the end of its run; later Checksum
// calls hash in full.
func (m *SumMemo) Drop() {
	if m != nil {
		m.sums = nil
	}
}

// Digest is a running FNV-64a hash, the one hash/fnv's New64a computes.
// Payload checksums and store fingerprints stream through it: a recipe's
// bytes are generated inside the hash loop, never stored.
type Digest uint64

// NewDigest returns the digest of no bytes.
func NewDigest() Digest { return fnvOffset }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Uint64 returns d with v's eight little-endian bytes folded in.
func (d Digest) Uint64(v uint64) Digest {
	for i := 0; i < 8; i++ {
		d = (d ^ Digest(byte(v>>(8*i)))) * fnvPrime
	}
	return d
}

// Payload returns d with p's bytes folded in.
func (d Digest) Payload(p Payload) Digest {
	if p.p != nil {
		for _, c := range p.bytes() {
			d = (d ^ Digest(c)) * fnvPrime
		}
		return d
	}
	for i := range int(p.n) {
		d = (d ^ Digest(genByte(i, p.base))) * fnvPrime
	}
	return d
}

// Write returns the payload a write with sequence seq to bytes [lo, lo+n)
// of chunk id leaves behind. A write covering the whole payload is the
// recipe, built in O(1); a partial one materializes a fresh copy and
// generates the written range into it, leaving p untouched.
func (p Payload) Write(id, seq uint64, lo, n int) Payload {
	l := p.Len()
	if lo == 0 && n == l {
		return Recipe(id, seq, l)
	}
	b := p.AppendTo(make([]byte, 0, l))
	base := uint8(recipeBase(id, seq))
	for i := lo; i < lo+n; i++ {
		b[i] = genByte(i, base)
	}
	return Bytes(b)
}

// Overlay returns the payload copy(dst, src) leaves in a working copy
// holding p: src's bytes over p's prefix, p's length kept. When src is at
// least as long, that is src's own prefix and nothing is copied; a shorter
// src materializes a fresh copy of p.
func (p Payload) Overlay(src Payload) Payload {
	l := p.Len()
	switch {
	case src.Len() >= l && src.p == nil:
		return recipe(src.base, l)
	case src.Len() >= l:
		return Bytes(src.bytes()[:l:l])
	}
	b := p.AppendTo(make([]byte, 0, l))
	src.AppendTo(b[:0])
	return Bytes(b)
}
