package obs

// CounterSet declares one component type's counters: the short names that
// by-name reads use, and the registry name each one books under. Declare a
// set once per component type, at package level, so names are joined once
// rather than per instance.
type CounterSet []counterDef

type counterDef struct {
	short string
	name  string // registry name; "" keeps the counter in-process only
}

// NewCounterSet declares counters that book into the registry as
// prefix+short.
func NewCounterSet(prefix string, short ...string) CounterSet {
	s := make(CounterSet, len(short))
	for i, n := range short {
		s[i] = counterDef{short: n, name: prefix + n}
	}
	return s
}

// Private keeps the counters at the given indices in-process: they count
// and read back by name but never reach the registry.
func (s CounterSet) Private(idx ...int) CounterSet {
	for _, i := range idx {
		s[i].name = ""
	}
	return s
}

// New returns one component's counters: a handle per declared counter, in
// declaration order, counting privately until SetRecorder attaches them.
func (s CounterSet) New() Counters {
	cs := make(Counters, len(s))
	for i := range s {
		cs[i].def = &s[i]
	}
	return cs
}

// Counters is one component's counter handles, indexed in the declaration
// order of their CounterSet.
type Counters []Count

// SetRecorder points every registry-bound handle at r. Nothing is
// registered until a handle's first Add; a nil r keeps counting private.
func (cs Counters) SetRecorder(r *Recorder) {
	for i := range cs {
		if cs[i].def.name != "" {
			cs[i] = Count{def: cs[i].def, v: cs[i].v, rec: r}
		}
	}
}

// Get returns the total of the counter with the given short name (0 if the
// set declares no such counter).
func (cs Counters) Get(short string) int64 {
	for i := range cs {
		if cs[i].def.short == short {
			return cs[i].v
		}
	}
	return 0
}

// Count is a counter handle: one component's count of one quantity. Add
// keeps the component's own total and, with a recorder attached, books the
// same delta into the recorder's {node,actor} series and the cluster rollup
// as Recorder.Add does, resolving both series on the first Add instead of
// looking them up per call.
type Count struct {
	def           *counterDef
	v             int64
	rec           *Recorder
	scoped, total *Counter
}

// Add increments the count. The first Add creates the registry series, even
// for a zero delta.
func (c *Count) Add(delta int64) {
	c.v += delta
	if c.rec == nil {
		return
	}
	if c.scoped == nil {
		c.scoped, c.total = c.rec.series(c.def.name)
	}
	c.scoped.Add(delta)
	c.total.Add(delta)
}

// Get returns the component's total, whether or not a recorder is attached.
// It never touches the registry.
func (c *Count) Get() int64 { return c.v }
