package obs

import (
	"encoding/json"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Attr is one typed event attribute: a key with an integer or a string
// value. Emitters build attributes with Int, Str and Bool; the event log
// stores each as an interned key id plus one int64, so publishing one
// allocates nothing and formats nothing.
type Attr struct {
	Key   string
	str   string
	num   int64
	isInt bool
}

// Int is an integer attribute. Its JSON form is the decimal string, as the
// map-valued attributes it replaces carried it.
func Int(key string, v int64) Attr { return Attr{Key: key, num: v, isInt: true} }

// Str is a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, str: v} }

// Bool is a string attribute holding "true" or "false".
func Bool(key string, v bool) Attr { return Str(key, strconv.FormatBool(v)) }

// value renders the attribute's value as its JSON carries it: integers in
// decimal.
func (a Attr) value() string {
	if a.isInt {
		return strconv.FormatInt(a.num, 10)
	}
	return a.str
}

// Attrs are an event's attributes in publication order. Keys are distinct;
// where a key repeats, the last entry wins, as a map assignment would.
type Attrs []Attr

func (as Attrs) lookup(key string) (Attr, bool) {
	for i := len(as) - 1; i >= 0; i-- {
		if as[i].Key == key {
			return as[i], true
		}
	}
	return Attr{}, false
}

// Int returns the integer attribute under key; ok is false when the key is
// absent or holds a string.
func (as Attrs) Int(key string) (v int64, ok bool) {
	a, found := as.lookup(key)
	if !found || !a.isInt {
		return 0, false
	}
	return a.num, true
}

// Str returns the attribute under key as its JSON carries it (integers in
// decimal), or "" when the key is absent.
func (as Attrs) Str(key string) string {
	a, _ := as.lookup(key)
	return a.value()
}

// MarshalJSON writes exactly what encoding/json writes for the equivalent
// map[string]string: an object with sorted keys, HTML-escaped strings, and
// integers as decimal strings. A nil Attrs is null, like a nil map.
func (as Attrs) MarshalJSON() ([]byte, error) {
	if as == nil {
		return []byte("null"), nil
	}
	order := make([]int, len(as))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(i, j int) int { return strings.Compare(as[i].Key, as[j].Key) })
	b := make([]byte, 0, 2+24*len(as))
	b = append(b, '{')
	for k, i := range order {
		if k+1 < len(order) && as[order[k+1]].Key == as[i].Key {
			continue // a later entry under the same key wins
		}
		if len(b) > 1 {
			b = append(b, ',')
		}
		b = appendJSONString(b, as[i].Key)
		b = append(b, ':')
		if as[i].isInt {
			b = append(b, '"')
			b = strconv.AppendInt(b, as[i].num, 10)
			b = append(b, '"')
		} else {
			b = appendJSONString(b, as[i].str)
		}
	}
	return append(b, '}'), nil
}

// UnmarshalJSON reads the object MarshalJSON writes; values that are
// canonical decimal integers come back as integer attributes.
func (as *Attrs) UnmarshalJSON(b []byte) error {
	var m map[string]string
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	*as = nil
	if m != nil {
		*as = appendMapAttrs(make(Attrs, 0, len(m)), m)
	}
	return nil
}

// appendMapAttrs appends a map's entries to dst in key order. A value that
// is the canonical decimal form of an int64 becomes an integer attribute,
// so typed readers see map-form and typed emitters alike and the JSON form
// is unchanged.
func appendMapAttrs(dst Attrs, m map[string]string) Attrs {
	start := len(dst)
	for k, v := range m {
		if n, ok := decimal(v); ok {
			dst = append(dst, Int(k, n))
		} else {
			dst = append(dst, Str(k, v))
		}
	}
	slices.SortFunc(dst[start:], func(a, b Attr) int { return strings.Compare(a.Key, b.Key) })
	return dst
}

// decimal parses s when it is exactly strconv.FormatInt(n, 10) for some n.
func decimal(s string) (int64, bool) {
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, false
	}
	var buf [20]byte
	return n, string(strconv.AppendInt(buf[:0], n, 10)) == s
}

// appendJSONString appends s as encoding/json encodes a string with HTML
// escaping on: <, > and & as \u003c, \u003e and \u0026; U+2028 and
// U+2029 escaped; control bytes as \b, \f, \n, \r, \t or \u00XX; invalid
// UTF-8 as \ufffd.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
