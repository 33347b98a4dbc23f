package obs

import "encoding/binary"

// The event log keeps every published event as one varint-encoded row in
// append-only byte blocks. Strings (types, actors, chunk names, attribute
// keys and string values) are interned once per observer, so a row holds
// only small integers and the collector has nothing to scan in it. A row is
//
//	uvarint(type id) varint(t_us − previous row's t_us) varint(node)
//	uvarint(actor id) uvarint(chunk id) varint(bytes) uvarint(#attrs)
//
// then per attribute uvarint(key id<<1 | isStr) followed by varint(int) or
// uvarint(string id). The time delta is signed: nothing orders an Emit or a
// merge. A row never straddles two blocks, and a full block is never
// copied, so the log grows without doubling copies. The first block is
// small, so a run of a few hundred events pays for a few kilobytes; later
// blocks double up to maxBlockBytes, and a row larger than the next block's
// size opens a block of its own size.
const (
	firstBlockBytes = 16 << 10
	maxBlockBytes   = 1 << 20
)

// eventLog is the observer's retained event stream. It is guarded by the
// observer's mutex; a logView reads a snapshot of it without the lock.
type eventLog struct {
	blocks  [][]byte // bytes below each block's length never change
	n       int
	lastTUS int64             // the last row's t_us, which the next row's delta is taken from
	counts  []int             // rows per type id
	row     []byte            // the row being encoded, reused for every append
	strs    []string          // intern id → string; id 0 is ""
	ids     map[string]uint32 // intern id of every string in strs but ""
}

func (l *eventLog) intern(s string) uint32 {
	if s == "" {
		return 0
	}
	if id, ok := l.ids[s]; ok {
		return id
	}
	id := uint32(len(l.strs))
	l.strs = append(l.strs, s)
	l.ids[s] = id
	return id
}

func (l *eventLog) append(tus int64, t Type, node int, actor, chunk string, bytes int64, attrs []Attr) {
	if l.ids == nil {
		l.ids, l.strs = make(map[string]uint32), []string{""}
	}
	typ := l.intern(string(t))
	r := binary.AppendUvarint(l.row[:0], uint64(typ))
	r = binary.AppendVarint(r, tus-l.lastTUS)
	r = binary.AppendVarint(r, int64(node))
	r = binary.AppendUvarint(r, uint64(l.intern(actor)))
	r = binary.AppendUvarint(r, uint64(l.intern(chunk)))
	r = binary.AppendVarint(r, bytes)
	r = binary.AppendUvarint(r, uint64(len(attrs)))
	for _, a := range attrs {
		key := uint64(l.intern(a.Key)) << 1
		if a.isInt {
			r = binary.AppendVarint(binary.AppendUvarint(r, key), a.num)
		} else {
			r = binary.AppendUvarint(binary.AppendUvarint(r, key|1), uint64(l.intern(a.str)))
		}
	}
	l.row = r

	k := len(l.blocks) - 1
	if k < 0 || len(l.blocks[k])+len(r) > cap(l.blocks[k]) {
		size := firstBlockBytes
		if k >= 0 {
			size = min(2*cap(l.blocks[k]), maxBlockBytes)
		}
		l.blocks = append(l.blocks, make([]byte, 0, max(size, len(r))))
		k++
	}
	l.blocks[k] = append(l.blocks[k], r...)
	for int(typ) >= len(l.counts) {
		l.counts = append(l.counts, 0)
	}
	l.counts[typ]++
	l.n++
	l.lastTUS = tus
}

// count returns how many rows have type t ("" = all).
func (l *eventLog) count(t Type) int {
	if t == "" {
		return l.n
	}
	if id, ok := l.ids[string(t)]; ok && int(id) < len(l.counts) {
		return l.counts[id]
	}
	return 0
}

// logView is a read-only snapshot of an eventLog: it copies the block
// headers with their lengths, and shares the block bytes and the string
// table, whose entries below the snapshot's lengths never change.
type logView struct {
	blocks [][]byte
	strs   []string
	n      int    // rows
	typ    uint64 // the type id events selects (0 = every row)
	sel    int    // rows of that type
}

// view snapshots the log, selecting the rows of type t for events. A type
// never published reads id 0, but selects no rows.
func (l *eventLog) view(t Type) logView {
	return logView{blocks: append([][]byte(nil), l.blocks...), strs: l.strs, n: l.n,
		typ: uint64(l.ids[string(t)]), sel: l.count(t)}
}

// rowReader decodes a view's rows in order.
type rowReader struct {
	rest [][]byte // blocks not yet started
	b    []byte   // the current block's unread bytes
	strs []string
	tus  int64
}

func (v *logView) rows() rowReader { return rowReader{rest: v.blocks, strs: v.strs} }

// more reports whether a row is left to read, moving on to the next block
// when the current one is read.
func (r *rowReader) more() bool {
	for len(r.b) == 0 {
		if len(r.rest) == 0 {
			return false
		}
		r.b, r.rest = r.rest[0], r.rest[1:]
	}
	return true
}

// uvarint and varint decode what binary.AppendUvarint and AppendVarint
// wrote; the log wrote every row itself, so they trust it.
func (r *rowReader) uvarint() uint64 {
	var x uint64
	for s := uint(0); ; s += 7 {
		c := r.b[0]
		r.b = r.b[1:]
		if c < 0x80 {
			return x | uint64(c)<<s
		}
		x |= uint64(c&0x7f) << s
	}
}

func (r *rowReader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// skip passes over n varints.
func (r *rowReader) skip(n int) {
	i := 0
	for ; n > 0; i++ {
		if r.b[i] < 0x80 {
			n--
		}
	}
	r.b = r.b[i:]
}

// head decodes the row's fields up to its attributes into ev, and returns
// its type id and attribute count.
func (r *rowReader) head(ev *Event) (typ uint64, nattrs int) {
	typ = r.uvarint()
	r.tus += r.varint()
	*ev = Event{TUS: r.tus, Type: Type(r.strs[typ])}
	ev.Node = int(r.varint())
	ev.Actor = r.strs[r.uvarint()]
	ev.Chunk = r.strs[r.uvarint()]
	ev.Bytes = r.varint()
	return typ, int(r.uvarint())
}

// attrs decodes the row's n attributes onto dst and sets them as ev's.
func (r *rowReader) attrs(ev *Event, n int, dst Attrs) Attrs {
	if n == 0 {
		return dst
	}
	first := len(dst)
	for ; n > 0; n-- {
		key := r.uvarint()
		if k := r.strs[key>>1]; key&1 != 0 {
			dst = append(dst, Str(k, r.strs[r.uvarint()]))
		} else {
			dst = append(dst, Int(k, r.varint()))
		}
	}
	ev.Attrs = dst[first:len(dst):len(dst)]
	return dst
}

// each calls fn with every event in order. The Attrs of the event fn gets
// are reused for the next: fn must copy what it keeps.
func (v *logView) each(fn func(Event) error) error {
	var ev Event
	var scratch Attrs
	for r := v.rows(); r.more(); {
		_, n := r.head(&ev)
		scratch = r.attrs(&ev, n, scratch[:0])
		if err := fn(ev); err != nil {
			return err
		}
	}
	return nil
}

// events materializes the view's selected events in two allocations: one
// for the events, one shared by their attributes, which a first pass
// counts.
func (v *logView) events() []Event {
	if v.sel == 0 {
		return nil
	}
	cells := 0
	for r := v.rows(); r.more(); {
		typ := r.uvarint()
		r.skip(5) // t_us, node, actor, chunk, bytes
		k := int(r.uvarint())
		r.skip(2 * k)
		if v.typ == 0 || typ == v.typ {
			cells += k
		}
	}
	out := make([]Event, 0, v.sel)
	attrs := make(Attrs, 0, cells)
	for r := v.rows(); r.more(); {
		var ev Event
		typ, k := r.head(&ev)
		if v.typ != 0 && typ != v.typ {
			r.skip(2 * k)
			continue
		}
		attrs = r.attrs(&ev, k, attrs)
		out = append(out, ev)
	}
	return out
}
