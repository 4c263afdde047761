package hdf5

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// FuzzParse hammers the h5check parser with mutated file images: parsing
// must never panic and must classify every image as either cleanly
// readable or corrupt with a reason — the property the golden-master
// comparison relies on when crash states tear metadata.
func FuzzParse(f *testing.F) {
	be := &MemBackend{}
	file, err := Format(be)
	if err != nil {
		f.Fatal(err)
	}
	if err := file.CreateGroup("/g1"); err != nil {
		f.Fatal(err)
	}
	if err := file.CreateDataset("/g1/d1", 4, 4); err != nil {
		f.Fatal(err)
	}
	if err := file.WriteDataset("/g1/d1", []byte("0123456789abcdef")); err != nil {
		f.Fatal(err)
	}
	if err := file.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(be.Buf)
	f.Add(be.Buf[:len(be.Buf)/2])
	negEOF := append([]byte(nil), be.Buf...)
	copy(negEOF, encodeObject(SigSuper, superBlock{Root: SuperSize, EOF: -528}, SuperSize))
	f.Add(negEOF)
	f.Add([]byte{})
	f.Add([]byte("\x89HDFgarbage"))

	f.Fuzz(func(t *testing.T, img []byte) {
		st := Parse(img, false)
		// Serialisation must be total and stable.
		s1, s2 := st.Serialize(), st.Serialize()
		if s1 != s2 {
			t.Fatal("Serialize is not deterministic")
		}
		// Strict mode must be at least as corrupt as lazy mode.
		strict := Parse(img, true)
		if strict.Readable() && !st.Readable() {
			t.Fatal("strict parse readable where lazy parse is corrupt")
		}
		// The tools must be total too.
		_, _ = Clear(img, true)
		_, _ = Inspect(img)
		_, _ = Status(img)
	})
}

// canonicalSamples holds one value per shape the file format writes: every
// object type, nil and empty slices, negative and 18-digit integers, and
// attribute strings.
func canonicalSamples() []any {
	return []any{
		superBlock{Root: 64, EOF: 1184, Status: 1},
		superBlock{Root: -5, EOF: 999999999999999999},
		objectHeader{Group: true, Btree: 160, Heap: 320},
		objectHeader{Rows: 8, Cols: 8, ChunkTree: 704, Attrs: "_NCProperties=version=2|netcdf=4.8.1"},
		objectHeader{},
		treeNode{Leaf: true, Children: []int64{448, 1216, -3}},
		treeNode{Children: []int64{}},
		treeNode{},
		symbolNode{Entries: []symbolEntry{{NameOff: 0, Ohdr: 1184}, {NameOff: 3, Ohdr: 1504}}},
		symbolNode{Entries: []symbolEntry{}},
		symbolNode{},
		localHeap{Used: 6, Names: []byte("g1\x00d1\x00")},
		localHeap{Used: 0, Names: []byte{}},
		localHeap{},
	}
}

// TestDecodeCanonicalTakesMarshalOutput checks that the strict decoder, not
// the encoding/json fallback, reads what encodeObject writes.
func TestDecodeCanonicalTakesMarshalOutput(t *testing.T) {
	for _, want := range canonicalSamples() {
		payload, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		got := reflect.New(reflect.TypeOf(want))
		if !decodeCanonical(payload, got.Interface()) {
			t.Errorf("%s: strict decoder fell back", payload)
			continue
		}
		if !reflect.DeepEqual(got.Elem().Interface(), want) {
			t.Errorf("%s: decoded %+v, want %+v", payload, got.Elem().Interface(), want)
		}
	}
}

// FuzzDecodeObject is a differential check of the strict payload decoder:
// for every object type, decodeObject must leave the target exactly as
// encoding/json does and return the same error text, both into a zero
// target and into one already holding values (File.lookup reuses its
// header, so absent fields must keep their old values).
func FuzzDecodeObject(f *testing.F) {
	for _, v := range canonicalSamples() {
		payload, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
		// Torn tails: an extent whose last bytes never persisted.
		torn := append([]byte(nil), payload...)
		for i := len(torn) * 2 / 3; i < len(torn); i++ {
			torn[i] = 0
		}
		f.Add(torn)
	}
	for _, s := range []string{
		`null`, `[]`, `{}`, `{"leaf":true,"children":null}`, `{"entries":[]}`,
		`{"group":false,"attrs":"a\"b"}`, `{"group":false,"attrs":"a\\b\u003c\n"}`, `{"group":false,"attrs":"<"}`,
		`{"group":false,"attrs":"é"}`, "{\"group\":false,\"attrs\":\"\xff\"}",
		`{"root":01,"eof":2,"status":0}`, `{"root":-0,"eof":2,"status":0}`,
		`{"root":1234567890123456789,"eof":2,"status":0}`,
		`{"root":99999999999999999999,"eof":2,"status":0}`, `{"root":1, "eof":2,"status":0}`,
		`{"used":3,"names":"!!!"}`, `{"used":3,"names":"YWI="}`, `{"GROUP":true}`,
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		diffDecode(t, SigSuper, payload, func() []*superBlock {
			return []*superBlock{{}, {Root: 7, EOF: 900, Status: 1}}
		})
		diffDecode(t, SigOhdr, payload, func() []*objectHeader {
			return []*objectHeader{{}, {Group: true, Btree: 64, Heap: 224, Rows: 3, Cols: 5, ChunkTree: 352, Attrs: "x"}}
		})
		diffDecode(t, SigTree, payload, func() []*treeNode {
			return []*treeNode{{}, {Leaf: true}, {Children: []int64{9, 10}}}
		})
		diffDecode(t, SigSnod, payload, func() []*symbolNode {
			return []*symbolNode{{}, {Entries: []symbolEntry{{NameOff: 1, Ohdr: 2}}}}
		})
		diffDecode(t, SigHeap, payload, func() []*localHeap {
			return []*localHeap{{}, {Used: 4}, {Used: 4, Names: []byte("ab")}}
		})
	})
}

// diffDecode decodes payload, as the extent of a sig object, into each
// target with decodeObject and into a second copy with encoding/json, and
// fails on any difference in the values or the error text.
func diffDecode[T object](t *testing.T, sig string, payload []byte, targets func() []*T) {
	t.Helper()
	ext := make([]byte, 8+len(payload))
	copy(ext, sig)
	binary.LittleEndian.PutUint32(ext[4:], uint32(len(payload)))
	copy(ext[8:], payload)
	got, want := targets(), targets()
	for i := range got {
		err := decodeObject(ext, 0, sig, len(ext), got[i])
		jerr := json.Unmarshal(payload, want[i])
		switch {
		case jerr == nil && err != nil:
			t.Fatalf("%s %q: got error %v, encoding/json accepts it", sigName(sig), payload, err)
		case jerr != nil && (err == nil || err.Error() != fmt.Sprintf("corrupt %s payload at address 0: %v", sigName(sig), jerr)):
			t.Fatalf("%s %q: got error %v, encoding/json says %v", sigName(sig), payload, err, jerr)
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s %q: decoded %+v, encoding/json gives %+v", sigName(sig), payload, *got[i], *want[i])
		}
	}
}
