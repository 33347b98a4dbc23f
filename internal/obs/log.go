package obs

// The event log keeps every published event as integer columns in
// append-only blocks. Strings (types, actors, chunk names, attribute keys and
// string values) are interned once per observer, so no column holds a
// pointer: the collector has nothing to scan, and since a full block is
// never copied, the log grows without doubling copies. The first block is
// small, so a run of a few hundred events pays for a few hundred rows;
// later blocks double up to maxBlockRows.
const (
	firstBlockRows = 256
	maxBlockRows   = 1 << 16
	// attrsPerRow sizes a block's attribute cells; a block whose cells run
	// out closes early.
	attrsPerRow = 2
	// strValue flags an attribute cell whose value is a string id.
	strValue = 1 << 31
)

// eventLog is the observer's retained event stream. It is guarded by the
// observer's mutex; a logView reads a snapshot of it without the lock.
type eventLog struct {
	blocks []*logBlock
	n      int
	strs   []string // intern id → string; id 0 is ""
	ids    map[string]uint32
}

// logBlock holds up to len(tus) rows. Row i's attributes are the cells
// [attrEnd[i-1], attrEnd[i]) (from 0 for row 0). Rows below n never change.
type logBlock struct {
	n                 int
	tus, bytes        []int64
	node              []int32
	typ, actor, chunk []uint32
	attrEnd           []uint32
	attrKey           []uint32 // key id, | strValue for a string value
	attrVal           []int64  // the integer, or the string's id
}

func newBlock(rows, cells int) *logBlock {
	return &logBlock{
		tus: make([]int64, rows), bytes: make([]int64, rows),
		node: make([]int32, rows),
		typ:  make([]uint32, rows), actor: make([]uint32, rows), chunk: make([]uint32, rows),
		attrEnd: make([]uint32, rows),
		attrKey: make([]uint32, cells), attrVal: make([]int64, cells),
	}
}

// span returns row i's attribute cells.
func (b *logBlock) span(i int) (start, end int) {
	if i > 0 {
		start = int(b.attrEnd[i-1])
	}
	return start, int(b.attrEnd[i])
}

func (b *logBlock) cellsUsed() int {
	if b.n == 0 {
		return 0
	}
	return int(b.attrEnd[b.n-1])
}

func (l *eventLog) intern(s string) uint32 {
	if s == "" {
		return 0
	}
	if id, ok := l.ids[s]; ok {
		return id
	}
	id := uint32(len(l.strs))
	if id >= strValue {
		panic("obs: event log string table full")
	}
	l.strs = append(l.strs, s)
	l.ids[s] = id
	return id
}

// tail returns the block the next row goes into, opening a new one when the
// last is out of rows or of cells for nattrs attributes.
func (l *eventLog) tail(nattrs int) *logBlock {
	rows := firstBlockRows
	if k := len(l.blocks); k > 0 {
		b := l.blocks[k-1]
		if b.n < len(b.tus) && b.cellsUsed()+nattrs <= len(b.attrKey) {
			return b
		}
		rows = min(2*len(b.tus), maxBlockRows)
	}
	b := newBlock(rows, max(attrsPerRow*rows, nattrs))
	l.blocks = append(l.blocks, b)
	return b
}

func (l *eventLog) append(tus int64, t Type, node int, actor, chunk string, bytes int64, attrs []Attr) {
	if int(int32(node)) != node {
		panic("obs: event node out of int32 range")
	}
	if l.ids == nil {
		l.ids, l.strs = make(map[string]uint32), []string{""}
	}
	b := l.tail(len(attrs))
	i := b.n
	b.tus[i], b.bytes[i], b.node[i] = tus, bytes, int32(node)
	b.typ[i], b.actor[i], b.chunk[i] = l.intern(string(t)), l.intern(actor), l.intern(chunk)
	c := b.cellsUsed()
	for _, a := range attrs {
		if a.isInt {
			b.attrKey[c], b.attrVal[c] = l.intern(a.Key), a.num
		} else {
			b.attrKey[c], b.attrVal[c] = l.intern(a.Key)|strValue, int64(l.intern(a.str))
		}
		c++
	}
	b.attrEnd[i] = uint32(c)
	b.n++
	l.n++
}

// count returns how many rows have type t ("" = all).
func (l *eventLog) count(t Type) int {
	if t == "" {
		return l.n
	}
	id, ok := l.ids[string(t)]
	if !ok {
		return 0
	}
	n := 0
	for _, b := range l.blocks {
		for _, typ := range b.typ[:b.n] {
			if typ == id {
				n++
			}
		}
	}
	return n
}

// logView is a read-only snapshot of an eventLog: it copies the block
// headers with their row counts, and shares the columns and the string
// table, whose entries below the snapshot's lengths never change.
type logView struct {
	blocks []logBlock
	n      int
	strs   []string
}

func (l *eventLog) view() logView {
	v := logView{blocks: make([]logBlock, len(l.blocks)), n: l.n, strs: l.strs}
	for i, b := range l.blocks {
		v.blocks[i] = *b
	}
	return v
}

// read appends row i of b's attributes to dst and returns the row as an
// Event whose Attrs are those appended cells.
func (v *logView) read(b *logBlock, i int, dst Attrs) (Event, Attrs) {
	ev := Event{
		TUS: b.tus[i], Type: Type(v.strs[b.typ[i]]), Node: int(b.node[i]),
		Actor: v.strs[b.actor[i]], Chunk: v.strs[b.chunk[i]], Bytes: b.bytes[i],
	}
	start, end := b.span(i)
	if start == end {
		return ev, dst
	}
	first := len(dst)
	for c := start; c < end; c++ {
		if k := b.attrKey[c]; k&strValue != 0 {
			dst = append(dst, Str(v.strs[k&^strValue], v.strs[b.attrVal[c]]))
		} else {
			dst = append(dst, Int(v.strs[k], b.attrVal[c]))
		}
	}
	ev.Attrs = dst[first:len(dst):len(dst)]
	return ev, dst
}

// each calls fn with every event in order. The Attrs of the event fn gets
// are reused for the next: fn must copy what it keeps.
func (v *logView) each(fn func(Event) error) error {
	var scratch Attrs
	for bi := range v.blocks {
		b := &v.blocks[bi]
		for i := 0; i < b.n; i++ {
			var ev Event
			ev, scratch = v.read(b, i, scratch[:0])
			if err := fn(ev); err != nil {
				return err
			}
		}
	}
	return nil
}

// events materializes the events of type t ("" = all) in two allocations:
// one for the events, one shared by their attributes.
func (v *logView) events(t Type) []Event {
	var id uint32
	if t != "" {
		id = v.id(string(t))
		if id == 0 {
			return nil
		}
	}
	n, cells := 0, 0
	for bi := range v.blocks {
		b := &v.blocks[bi]
		for i := 0; i < b.n; i++ {
			if t == "" || b.typ[i] == id {
				start, end := b.span(i)
				n, cells = n+1, cells+end-start
			}
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Event, 0, n)
	attrs := make(Attrs, 0, cells)
	for bi := range v.blocks {
		b := &v.blocks[bi]
		for i := 0; i < b.n; i++ {
			if t == "" || b.typ[i] == id {
				var ev Event
				ev, attrs = v.read(b, i, attrs)
				out = append(out, ev)
			}
		}
	}
	return out
}

// id returns s's intern id, 0 when s was never interned.
func (v *logView) id(s string) uint32 {
	for id := 1; id < len(v.strs); id++ {
		if v.strs[id] == s {
			return uint32(id)
		}
	}
	return 0
}
