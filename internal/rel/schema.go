package rel

import (
	"fmt"
	"strings"
)

// Tuple is an ordered list of values matching a Schema's attributes.
type Tuple []Value

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Equal reports whether two tuples are identical under Value.Same.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Same(o[i]) {
			return false
		}
	}
	return true
}

// KeyEqual reports whether two tuples are KeyEqual value by value — equal
// TupleKey encodings. It is finer than Equal: Int(1<<53) and Int(1<<53+1)
// are Same but not KeyEqual.
func (t Tuple) KeyEqual(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].KeyEqual(o[i]) {
			return false
		}
	}
	return true
}

// String renders the tuple for debugging.
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "<" + strings.Join(parts, ", ") + ">"
}

// Schema describes a relation: an ordered attribute list plus an optional
// primary key (the relation's IDs in the paper's terminology).
//
// Attribute names are plain strings. Scans emit base-table attributes in
// qualified form ("parts.price"), which doubles as provenance information
// for the conditional-attribute analysis of Section 5; computed attributes
// carry whatever name the plan assigns.
type Schema struct {
	Attrs []string
	Key   []string
}

// NewSchema builds a schema from attribute names and key attribute names.
// It panics if a key attribute is not among the attributes, since that is
// a programming error in plan construction.
func NewSchema(attrs []string, key []string) Schema {
	s := Schema{Attrs: append([]string(nil), attrs...), Key: append([]string(nil), key...)}
	for _, k := range s.Key {
		if s.Index(k) < 0 {
			panic(fmt.Sprintf("rel: key attribute %q not in schema %v", k, attrs))
		}
	}
	return s
}

// Index returns the position of the named attribute, or -1 if absent.
func (s Schema) Index(name string) int {
	for i, a := range s.Attrs {
		if a == name {
			return i
		}
	}
	return -1
}

// Has reports whether the schema contains the named attribute.
func (s Schema) Has(name string) bool { return s.Index(name) >= 0 }

// HasAll reports whether the schema contains every named attribute.
func (s Schema) HasAll(names []string) bool {
	for _, n := range names {
		if !s.Has(n) {
			return false
		}
	}
	return true
}

// Indices returns the positions of the named attributes. It returns an
// error naming the first missing attribute.
func (s Schema) Indices(names []string) ([]int, error) {
	return s.AppendIndices(make([]int, 0, len(names)), names)
}

// AppendIndices is Indices appending to dst, for callers with a scratch.
func (s Schema) AppendIndices(dst []int, names []string) ([]int, error) {
	for _, n := range names {
		j := s.Index(n)
		if j < 0 {
			return nil, fmt.Errorf("rel: attribute %q not in schema %v", n, s.Attrs)
		}
		dst = append(dst, j)
	}
	return dst, nil
}

// KeyIndices returns the positions of the key attributes.
func (s Schema) KeyIndices() []int {
	idx, err := s.Indices(s.Key)
	if err != nil {
		panic(err) // NewSchema validated the key
	}
	return idx
}

// Clone returns a deep copy of the schema.
func (s Schema) Clone() Schema {
	return Schema{
		Attrs: append([]string(nil), s.Attrs...),
		Key:   append([]string(nil), s.Key...),
	}
}

// WithKey returns a copy of the schema with the given primary key.
func (s Schema) WithKey(key []string) Schema {
	c := s.Clone()
	c.Key = append([]string(nil), key...)
	for _, k := range c.Key {
		if c.Index(k) < 0 {
			panic(fmt.Sprintf("rel: key attribute %q not in schema %v", k, c.Attrs))
		}
	}
	return c
}

// NonKey returns the attributes that are not part of the primary key.
func (s Schema) NonKey() []string {
	var out []string
	for _, a := range s.Attrs {
		if !contains(s.Key, a) {
			out = append(out, a)
		}
	}
	return out
}

// String renders the schema for debugging.
func (s Schema) String() string {
	parts := make([]string, len(s.Attrs))
	for i, a := range s.Attrs {
		if contains(s.Key, a) {
			parts[i] = a + "*"
		} else {
			parts[i] = a
		}
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Qualify returns qualified attribute names "alias.attr" for the given
// bare attribute names.
func Qualify(alias string, attrs []string) []string {
	out := make([]string, len(attrs))
	for i, a := range attrs {
		out[i] = alias + "." + a
	}
	return out
}

// BaseAttr splits a qualified name into its table/alias part and attribute
// part. For an unqualified name, table is empty.
func BaseAttr(qualified string) (table, attr string) {
	if i := strings.LastIndex(qualified, "."); i >= 0 {
		return qualified[:i], qualified[i+1:]
	}
	return "", qualified
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Contains reports whether the string slice contains x.
func Contains(xs []string, x string) bool { return contains(xs, x) }

// Subset reports whether every element of a appears in b.
func Subset(a, b []string) bool {
	for _, x := range a {
		if !contains(b, x) {
			return false
		}
	}
	return true
}

// Intersect returns the elements of a that also appear in b, preserving
// a's order.
func Intersect(a, b []string) []string {
	var out []string
	for _, x := range a {
		if contains(b, x) {
			out = append(out, x)
		}
	}
	return out
}

// Minus returns the elements of a that do not appear in b, preserving
// a's order.
func Minus(a, b []string) []string {
	var out []string
	for _, x := range a {
		if !contains(b, x) {
			out = append(out, x)
		}
	}
	return out
}

// Union returns the union of a and b, preserving first-seen order.
func Union(a, b []string) []string {
	out := append([]string(nil), a...)
	for _, x := range b {
		if !contains(out, x) {
			out = append(out, x)
		}
	}
	return out
}
