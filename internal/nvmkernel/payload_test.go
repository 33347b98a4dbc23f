package nvmkernel

import (
	"bytes"
	"hash/fnv"
	"testing"
)

// refGen is the oracle's generator: byte i of the recipe (id, seq), written
// out as the plain loop the payload type replaces.
func refGen(dst []byte, lo int, id, seq uint64) {
	for i := range dst {
		dst[i] = byte(uint64(lo+i)*2654435761 + seq*97 + id)
	}
}

// refChecksum is the oracle's checksum: hash/fnv over size's eight
// little-endian bytes, then the bytes.
func refChecksum(data []byte, size int64) uint64 {
	h := fnv.New64a()
	var sz [8]byte
	for i := range sz {
		sz[i] = byte(size >> (8 * i))
	}
	h.Write(sz[:])
	h.Write(data)
	return h.Sum64()
}

// checkPayload holds p to the oracle's bytes ref, through memo as well as
// directly.
func checkPayload(t *testing.T, step string, memo *SumMemo, p Payload, ref []byte, size int64) {
	t.Helper()
	if !p.Valid() {
		t.Fatalf("%s: payload reads as empty", step)
	}
	if p.Len() != len(ref) {
		t.Fatalf("%s: Len = %d, want %d", step, p.Len(), len(ref))
	}
	if got := p.AppendTo(nil); !bytes.Equal(got, ref) {
		t.Fatalf("%s: AppendTo differs from the reference bytes", step)
	}
	prefix := []byte("prefix")
	if got := p.AppendTo(prefix); !bytes.Equal(got[:len(prefix)], []byte("prefix")) || !bytes.Equal(got[len(prefix):], ref) {
		t.Fatalf("%s: AppendTo to a non-empty dst", step)
	}
	want := refChecksum(ref, size)
	if got := p.Checksum(size); got != want {
		t.Fatalf("%s: Checksum = %#x, want %#x", step, got, want)
	}
	// The first memo read may miss and the second hits; the same bytes
	// materialized are hashed in full and must agree.
	for _, read := range []string{"first", "second"} {
		if got := memo.Checksum(p, size); got != want {
			t.Fatalf("%s: %s memo read = %#x, want %#x", step, read, got, want)
		}
	}
	if got := memo.Checksum(Bytes(p.AppendTo(nil)), size); got != want {
		t.Fatalf("%s: memo read of the materialized bytes = %#x, want %#x", step, got, want)
	}
}

// FuzzPayload drives a payload and a plain byte slice through the same
// history (a recipe, then whole and partial writes, a prefix overlay, and
// one torn or bit-flip damage step) and holds every step's bytes and
// checksum to the reference path, read directly and through one checksum
// memo that sees the whole history, so damaged bytes must never read a
// recipe's memoized sum.
func FuzzPayload(f *testing.F) {
	// writes is a list of 5-byte ops: kind, then two little-endian uint16s.
	// kind%4: 0 writes [a, a+b), 1 writes the suffix from a, 2 writes the
	// whole payload, 3 overlays the payload onto a fresh working copy of
	// length a.
	for _, n := range []uint32{0, 1, 255, 256, 257, 65536} {
		last := uint16(max(n, 1) - 1)
		lastOp := []byte{1, byte(last), byte(last >> 8), 0, 0}
		f.Add(uint64(7), uint64(1), n, []byte{}, uint8(0), uint32(0))
		f.Add(uint64(7), uint64(1), n, []byte{0, 0, 0, 1, 0}, uint8(1), uint32(0)) // first byte, torn
		f.Add(uint64(7), uint64(1), n, lastOp, uint8(2), uint32(last))             // last byte, flipped
		f.Add(uint64(9), uint64(4), n, append([]byte{0, 0, 0, 0xff, 0xff, 2, 0, 0, 0, 0}, lastOp...), uint8(2), uint32(n))
		f.Add(uint64(1<<63), uint64(1<<40), n, []byte{3, 0x80, 0, 0, 0, 1, 0x10, 0, 0, 0}, uint8(1), uint32(0))
	}
	f.Fuzz(func(t *testing.T, id, seq uint64, n uint32, writes []byte, damage uint8, at uint32) {
		l := int(n % (64<<10 + 1))
		size := int64(l)*3 + 1
		p := Recipe(id, seq, l)
		memo := NewSumMemo()
		ref := make([]byte, l)
		refGen(ref, 0, id, seq)
		checkPayload(t, "recipe", memo, p, ref, size)

		for i := 0; i+5 <= len(writes) && i < 5*16; i += 5 {
			seq++
			a := int(writes[i+1]) | int(writes[i+2])<<8
			b := int(writes[i+3]) | int(writes[i+4])<<8
			var lo, ln int
			switch writes[i] % 4 {
			case 0:
				lo = a % (l + 1)
				ln = b % (l - lo + 1)
			case 1:
				lo = a % (l + 1)
				ln = l - lo
			case 2:
				lo, ln = 0, l
			case 3:
				// A working copy of another length takes p's prefix.
				w := make([]byte, a%(l+2))
				copy(w, ref)
				p, ref = Zeros(len(w)).Overlay(p), w
				l = len(ref)
				checkPayload(t, "overlay", memo, p, ref, size)
				continue
			}
			before := p.AppendTo(nil)
			q := p.Write(id, seq, lo, ln)
			refGen(ref[lo:lo+ln], lo, id, seq)
			checkPayload(t, "write", memo, q, ref, size)
			if !bytes.Equal(p.AppendTo(nil), before) {
				t.Fatalf("write [%d,%d) changed the payload it was built from", lo, lo+ln)
			}
			p = q
		}

		if l == 0 || damage%3 == 0 {
			return
		}
		// Damage as fault injection does it: fresh bytes, never in place.
		before := p.AppendTo(nil)
		data := p.AppendTo(nil)
		if damage%3 == 1 {
			for i := len(data) / 2; i < len(data); i++ {
				data[i] = 0
				ref[i] = 0
			}
		} else {
			k, bit := int(at%uint32(l)), byte(1)<<(damage%8)
			data[k] ^= bit
			ref[k] ^= bit
		}
		checkPayload(t, "damage", memo, Bytes(data), ref, size)
		if !bytes.Equal(p.AppendTo(nil), before) {
			t.Fatal("damaging a materialized copy changed the original payload")
		}
	})
}

func TestZeroPayloadIsEmpty(t *testing.T) {
	var p Payload
	if p.Valid() || p.Len() != 0 || len(p.AppendTo(nil)) != 0 {
		t.Fatalf("zero Payload = valid %v, len %d", p.Valid(), p.Len())
	}
	for _, q := range []Payload{Bytes(nil), Recipe(1, 2, 0), Zeros(0)} {
		if !q.Valid() || q.Len() != 0 {
			t.Errorf("empty payload %+v: valid %v, len %d", q, q.Valid(), q.Len())
		}
		if q.Checksum(5) != refChecksum(nil, 5) {
			t.Errorf("empty payload %+v: checksum differs from the reference", q)
		}
	}
}

// A memo answers with the full FNV on a miss and on a hit, keeps recipe
// sums only, tells sizes, lengths and bases apart, and once dropped (or
// when nil) hashes everything in full.
func TestSumMemo(t *testing.T) {
	m := NewSumMemo()
	r := Recipe(5, 11, 4096)
	want := refChecksum(r.AppendTo(nil), 4096)
	for _, read := range []string{"miss", "hit"} {
		if got := m.Checksum(r, 4096); got != want {
			t.Fatalf("%s: memo = %#x, want %#x", read, got, want)
		}
	}
	if got := m.Checksum(Bytes(r.AppendTo(nil)), 4096); got != want {
		t.Fatalf("the recipe's bytes materialized = %#x, want %#x", got, want)
	}
	if len(m.sums) != 1 {
		t.Fatalf("memo holds %d sums after one recipe and its bytes, want 1", len(m.sums))
	}
	// A bit-flipped copy of a memoized recipe is hashed in full.
	b := r.AppendTo(nil)
	b[7] ^= 1
	if got := m.Checksum(Bytes(b), 4096); got != refChecksum(b, 4096) || got == want {
		t.Fatalf("damaged bytes read %#x, want the full hash %#x (recipe %#x)", got, refChecksum(b, 4096), want)
	}
	for _, q := range []struct {
		p    Payload
		size int64
	}{{r, 8192}, {Recipe(5, 11, 4095), 4096}, {Recipe(5, 12, 4096), 4096}} {
		if got, ref := m.Checksum(q.p, q.size), refChecksum(q.p.AppendTo(nil), q.size); got != ref {
			t.Fatalf("memo(%+v, %d) = %#x, want %#x", q.p, q.size, got, ref)
		}
	}
	if len(m.sums) != 4 {
		t.Fatalf("memo holds %d sums for four distinct recipes, want 4", len(m.sums))
	}
	m.Drop()
	var none *SumMemo
	for _, mm := range []*SumMemo{m, none} {
		if got := mm.Checksum(r, 4096); got != want {
			t.Fatalf("dropped or nil memo = %#x, want %#x", got, want)
		}
	}
	if m.sums != nil {
		t.Fatal("a dropped memo stored a sum")
	}
}

func TestZerosLongerThanTheSharedPage(t *testing.T) {
	n := len(zeroPage) + 3
	if got := Zeros(n).AppendTo(nil); !bytes.Equal(got, make([]byte, n)) {
		t.Fatal("Zeros beyond the shared page is not all zero")
	}
}

// A digest chained over several prefixes and payloads equals hash/fnv fed
// the same bytes: the form store fingerprints take.
func TestDigestMatchesHashFNV(t *testing.T) {
	ps := []Payload{Recipe(3, 9, 300), Bytes([]byte{1, 2, 3}), Zeros(5), Recipe(1<<60, 2, 1)}
	h := fnv.New64a()
	d := NewDigest()
	for i, p := range ps {
		var v [8]byte
		for j := range v {
			v[j] = byte(uint64(i+1) >> (8 * j))
		}
		h.Write(v[:])
		h.Write(p.AppendTo(nil))
		d = d.Uint64(uint64(i + 1)).Payload(p)
	}
	if uint64(d) != h.Sum64() {
		t.Fatalf("digest %#x, hash/fnv %#x", uint64(d), h.Sum64())
	}
}
