package hdf5

import (
	"encoding/base64"
	"encoding/json"
)

// object is the set of types an extent's payload decodes into.
type object interface {
	superBlock | objectHeader | treeNode | symbolNode | localHeap
}

// decodePayload fills v from an object payload. Payloads exactly as
// json.Marshal emits them take a strict, reflection-free path; everything
// else (torn or zeroed payloads, foreign bytes) goes through
// encoding/json, so its error text is unchanged. encoding/json works on a
// copy, so v does not escape and callers keep their targets on the stack.
func decodePayload[T object](p []byte, v *T) error {
	if decodeCanonical(p, any(v)) {
		return nil
	}
	tmp := *v
	err := json.Unmarshal(p, &tmp)
	*v = tmp
	return err
}

// decodeCanonical decodes p into v when p is byte-for-byte in the form
// json.Marshal produces for v's type: fields in declaration order, no
// whitespace, integers without leading zeros and of at most 18 digits,
// booleans, null or bracketed slices, strings of printable ASCII without
// escapes, and base64 heap names. It reports false, leaving v untouched,
// for anything else.
//
// A decode keeps json.Unmarshal's merge semantics: a field absent from p
// (an omitempty field of objectHeader) keeps the value it had in v.
// File.lookup depends on this, since it reuses one header across path
// components. A target whose slice field is already non-nil is left to
// encoding/json, which reuses that slice's backing array.
func decodeCanonical(p []byte, v any) bool {
	s := scanner{b: p}
	switch t := v.(type) {
	case *superBlock:
		o := *t
		s.lit(`{"root":`)
		o.Root = s.int64()
		s.lit(`,"eof":`)
		o.EOF = s.int64()
		s.lit(`,"status":`)
		o.Status = s.int()
		return commit(&s, t, o)
	case *objectHeader:
		o := *t
		s.lit(`{"group":`)
		o.Group = s.bool()
		if s.opt(`,"btree":`) {
			o.Btree = s.int64()
		}
		if s.opt(`,"heap":`) {
			o.Heap = s.int64()
		}
		if s.opt(`,"rows":`) {
			o.Rows = s.int()
		}
		if s.opt(`,"cols":`) {
			o.Cols = s.int()
		}
		if s.opt(`,"chunktree":`) {
			o.ChunkTree = s.int64()
		}
		if s.opt(`,"attrs":`) {
			o.Attrs = string(s.str())
		}
		return commit(&s, t, o)
	case *treeNode:
		if t.Children != nil {
			return false
		}
		o := *t
		s.lit(`{"leaf":`)
		o.Leaf = s.bool()
		s.lit(`,"children":`)
		if !s.opt(`null`) {
			o.Children = make([]int64, 0, s.count(',')+1)
			s.array(func() { o.Children = append(o.Children, s.int64()) })
		}
		return commit(&s, t, o)
	case *symbolNode:
		if t.Entries != nil {
			return false
		}
		o := *t
		s.lit(`{"entries":`)
		if !s.opt(`null`) {
			o.Entries = make([]symbolEntry, 0, s.count('{'))
			s.array(func() {
				var e symbolEntry
				s.lit(`{"name":`)
				e.NameOff = s.int()
				s.lit(`,"ohdr":`)
				e.Ohdr = s.int64()
				s.lit(`}`)
				o.Entries = append(o.Entries, e)
			})
		}
		return commit(&s, t, o)
	case *localHeap:
		if t.Names != nil {
			return false
		}
		o := *t
		s.lit(`{"used":`)
		o.Used = s.int()
		s.lit(`,"names":`)
		if !s.opt(`null`) {
			// Decoded exactly as encoding/json decodes a []byte field.
			src := s.str()
			buf := make([]byte, base64.StdEncoding.DecodedLen(len(src)))
			n, err := base64.StdEncoding.Decode(buf, src)
			if err != nil {
				return false
			}
			o.Names = buf[:n]
		}
		return commit(&s, t, o)
	}
	return false
}

// commit closes the object and stores o in t if the whole payload matched.
func commit[T object](s *scanner, t *T, o T) bool {
	s.lit(`}`)
	if s.done() {
		*t = o
		return true
	}
	return false
}

// scanner reads a canonical JSON payload. Failures are sticky: once a
// read does not match, bad stays set and done reports false.
type scanner struct {
	b   []byte
	i   int
	bad bool
}

// opt consumes lit if the input continues with it. It compares byte by
// byte: for literals this short that is faster than a string comparison,
// which calls into the runtime.
func (s *scanner) opt(lit string) bool {
	if s.bad || len(s.b)-s.i < len(lit) {
		return false
	}
	rest := s.b[s.i : s.i+len(lit)]
	for k := 0; k < len(lit); k++ {
		if rest[k] != lit[k] {
			return false
		}
	}
	s.i += len(lit)
	return true
}

// lit consumes lit or marks the scan bad.
func (s *scanner) lit(lit string) {
	if !s.opt(lit) {
		s.bad = true
	}
}

// done reports whether the whole input matched.
func (s *scanner) done() bool { return !s.bad && s.i == len(s.b) }

// array reads a bracketed array, calling elem to read each element.
func (s *scanner) array(elem func()) {
	s.lit(`[`)
	if s.opt(`]`) {
		return
	}
	for !s.bad {
		elem()
		if !s.opt(`,`) {
			break
		}
	}
	s.lit(`]`)
}

// count counts the bytes c between the cursor and the next closing
// bracket, so an array's slice can be sized before it is read.
func (s *scanner) count(c byte) int {
	n := 0
	for _, b := range s.b[s.i:] {
		if b == ']' {
			break
		}
		if b == c {
			n++
		}
	}
	return n
}

// int64 reads an integer of at most 18 digits as json.Marshal writes it.
func (s *scanner) int64() int64 {
	if s.bad {
		return 0
	}
	neg := s.opt(`-`)
	start := s.i
	var v int64
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		v = v*10 + int64(s.b[s.i]-'0')
		s.i++
	}
	n := s.i - start
	if n == 0 || n > 18 || n > 1 && s.b[start] == '0' || neg && v == 0 {
		s.bad = true
		return 0
	}
	if neg {
		v = -v
	}
	return v
}

// int reads an integer that must also fit the platform's int.
func (s *scanner) int() int {
	v := s.int64()
	if int64(int(v)) != v {
		s.bad = true
	}
	return int(v)
}

// bool reads true or false.
func (s *scanner) bool() bool {
	if s.opt(`true`) {
		return true
	}
	s.lit(`false`)
	return false
}

// str reads a quoted string of printable ASCII without escapes and
// returns its contents, aliasing the input.
func (s *scanner) str() []byte {
	s.lit(`"`)
	if s.bad {
		return nil
	}
	start := s.i
	for s.i < len(s.b) && s.b[s.i] != '"' {
		if c := s.b[s.i]; c < 0x20 || c > 0x7e || c == '\\' {
			s.bad = true
			return nil
		}
		s.i++
	}
	out := s.b[start:s.i]
	s.lit(`"`)
	return out
}
