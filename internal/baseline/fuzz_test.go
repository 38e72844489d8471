package baseline

import (
	"reflect"
	"testing"
)

// FuzzDecodeBaseline: Decode returns an error, or fields that encode and
// decode back to equal fields. It never panics.
func FuzzDecodeBaseline(f *testing.F) {
	f.Add(Encode([]Field{{"name", "vaxa"}, {"load", U32(3)}, {"note", "tab\tinside"}}))
	f.Add([]byte("no tab here\n"))
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := Decode(b)
		if err != nil {
			return
		}
		again, err := Decode(Encode(got))
		if err != nil || !reflect.DeepEqual(got, again) {
			t.Fatalf("round trip changed the fields: %v\n%q\n%q", err, got, again)
		}
	})
}
