package fig

import (
	"reflect"
	"testing"
)

// FuzzDecodeFig: the ASCII figure is the paper's translate-and-parse
// baseline; a figure file can hold anything. Decode returns an error, or
// shapes that encode and decode back to equal shapes. It never panics,
// and a header count cannot size an allocation the lines do not back.
func FuzzDecodeFig(f *testing.F) {
	shapes := make([]Shape, 5)
	for i := range shapes {
		shapes[i] = SyntheticShape(i)
	}
	f.Add(Encode(shapes))
	f.Add(Encode(nil))
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := Decode(b)
		if err != nil {
			return
		}
		again, err := Decode(Encode(got))
		if err != nil || !reflect.DeepEqual(got, again) {
			t.Fatalf("round trip changed the figure: %v\n%+v\n%+v", err, got, again)
		}
	})
}
