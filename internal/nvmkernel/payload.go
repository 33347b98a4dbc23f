package nvmkernel

import "slices"

// Payload is one immutable version of a chunk's real payload bytes. Every
// version a workload writes whole is fully named by its chunk ID, the
// write sequence and its length, so a Payload is either that recipe,
// whose bytes are generated on demand, or a byte slice materialized by a
// partial write, a prefix copy or fault injection. Either way it is never
// written after it is built: the DRAM working copy, the NVM version slots,
// the buddy replica and the PFS share one value, and a change builds a new
// Payload. The zero Payload is no payload at all (an empty version slot).
//
// A non-nil b is a materialized payload; with b nil, n > 0 is a recipe and
// n == 0 no payload.
type Payload struct {
	b       []byte // materialized bytes
	id, seq uint64 // recipe: chunk ID and write sequence
	n       int    // recipe length
}

// Recipe is the n-byte payload that a whole-chunk write with sequence seq
// leaves in chunk id: byte i is byte(i*2654435761 + seq*97 + id).
func Recipe(id, seq uint64, n int) Payload {
	if n == 0 {
		return Bytes(nil)
	}
	return Payload{id: id, seq: seq, n: n}
}

// Bytes wraps b as a payload without copying it. The caller hands b over:
// neither it nor anyone else may write b afterwards.
func Bytes(b []byte) Payload {
	if b == nil {
		b = []byte{}
	}
	return Payload{b: b}
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
// genByte(i, recipeBase(id, seq)).
func genByte(i int, base uint64) byte { return byte(uint64(i)*2654435761 + base) }

func recipeBase(id, seq uint64) uint64 { return seq*97 + id }

// Valid reports whether p holds a payload: false only for the zero Payload.
func (p Payload) Valid() bool { return p.b != nil || p.n > 0 }

// Len returns the payload's length in bytes.
func (p Payload) Len() int {
	if p.b == nil {
		return p.n
	}
	return len(p.b)
}

// AppendTo appends the payload's bytes to dst and returns the result.
func (p Payload) AppendTo(dst []byte) []byte {
	if p.b != nil {
		return append(dst, p.b...)
	}
	at := len(dst)
	dst = slices.Grow(dst, p.n)[:at+p.n]
	base := recipeBase(p.id, p.seq)
	for i := range p.n {
		dst[at+i] = genByte(i, base)
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
	if p.b != nil {
		for _, c := range p.b {
			d = (d ^ Digest(c)) * fnvPrime
		}
		return d
	}
	base := recipeBase(p.id, p.seq)
	for i := range p.n {
		d = (d ^ Digest(genByte(i, base))) * fnvPrime
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
	base := recipeBase(id, seq)
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
	case src.Len() >= l && src.b == nil:
		return Recipe(src.id, src.seq, l)
	case src.Len() >= l:
		return Bytes(src.b[:l:l])
	}
	b := p.AppendTo(make([]byte, 0, l))
	src.AppendTo(b[:0])
	return Bytes(b)
}
