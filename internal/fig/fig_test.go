package fig

import (
	"errors"
	"reflect"
	"testing"

	"hemlock/internal/addrspace"
	"hemlock/internal/mem"
	"hemlock/internal/shmfs"
)

func TestASCIICodecRoundTrip(t *testing.T) {
	shapes := make([]Shape, 20)
	for i := range shapes {
		shapes[i] = SyntheticShape(i)
	}
	got, err := Decode(Encode(shapes))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shapes, got) {
		t.Fatal("ASCII round trip mismatch")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		[]byte("not a figure"),
		[]byte("#FIG-lite 1.0\nobjects banana\n"),
		[]byte("#FIG-lite 1.0\nobjects 1\n1 2 3\n"),
		[]byte("#FIG-lite 1.0\nobjects 2\n1 0 0 1 1 \"x\"\n"),
		[]byte("#FIG-lite 1.0\nobjects 1\n1 0 0 1 1 unquoted\n"),
		[]byte("#FIG-lite 1.0\nobjects -1\n"),       // panicked sizing the slice
		[]byte("#FIG-lite 1.0\nobjects 20000000\n"), // allocated 781 MB
		[]byte("#FIG-lite 1.0\nobjects 1\n-1 0 0 1 1 \"x\"\n"),
	}
	for _, c := range cases {
		if _, err := Decode(c); !errors.Is(err, ErrBadFigure) {
			t.Errorf("accepted %q: %v", c, err)
		}
	}
}

func TestSaveLoadASCII(t *testing.T) {
	fs, _ := shmfs.New(mem.NewPhysical(0))
	shapes := []Shape{SyntheticShape(0), SyntheticShape(2)}
	if err := SaveASCII(fs, "/figs/a.fig", shapes, 0); err == nil {
		t.Fatal("save into missing dir should fail")
	}
	fs.MkdirAll("/figs", shmfs.DefaultDirMode, 0)
	if err := SaveASCII(fs, "/figs/a.fig", shapes, 0); err != nil {
		t.Fatal(err)
	}
	got, err := LoadASCII(fs, "/figs/a.fig", 0)
	if err != nil || !reflect.DeepEqual(shapes, got) {
		t.Fatalf("load: %v %v", got, err)
	}
}

func segFig(t *testing.T) (*SegFigure, *addrspace.Space, uint32) {
	t.Helper()
	as := addrspace.New(mem.NewPhysical(0))
	base := uint32(0x30300000)
	if err := as.MapAnon(base, 256*1024, addrspace.ProtRW); err != nil {
		t.Fatal(err)
	}
	f, err := Create(as, base, 256*1024)
	if err != nil {
		t.Fatal(err)
	}
	return f, as, base
}

func TestSegFigureAddAndWalk(t *testing.T) {
	f, _, _ := segFig(t)
	var want []Shape
	for i := 0; i < 30; i++ {
		s := SyntheticShape(i)
		if err := f.Add(s); err != nil {
			t.Fatal(err)
		}
		want = append([]Shape{s}, want...) // newest first
	}
	got, err := f.Shapes()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("segment walk mismatch")
	}
	if n, _ := f.Count(); n != 30 {
		t.Fatalf("count = %d", n)
	}
}

func TestSegFigurePersistsAcrossAttach(t *testing.T) {
	// "Save" is free: a later attach (a new xfig run) sees the figure.
	f, as, base := segFig(t)
	f.Add(SyntheticShape(5))
	f.Add(SyntheticShape(8))
	g, err := Attach(as, base)
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.Shapes()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != SyntheticShape(8) {
		t.Fatalf("attached figure: %+v", got)
	}
}

func TestSegFigureDuplicate(t *testing.T) {
	f, _, _ := segFig(t)
	f.Add(SyntheticShape(2)) // a text shape with a label
	if err := f.Duplicate(0); err != nil {
		t.Fatal(err)
	}
	got, _ := f.Shapes()
	if len(got) != 2 || got[0] != got[1] {
		t.Fatalf("duplicate: %+v", got)
	}
	if err := f.Duplicate(5); !errors.Is(err, ErrBadFigure) {
		t.Fatalf("out-of-range duplicate: %v", err)
	}
}

func TestSegFigureRemoveFreesSpace(t *testing.T) {
	f, _, _ := segFig(t)
	for i := 0; i < 10; i++ {
		f.Add(SyntheticShape(i))
	}
	// Remove from the middle; list stays consistent.
	if err := f.Remove(4); err != nil {
		t.Fatal(err)
	}
	got, _ := f.Shapes()
	if len(got) != 9 {
		t.Fatalf("len = %d", len(got))
	}
	if n, _ := f.Count(); n != 9 {
		t.Fatalf("count = %d", n)
	}
	// Removing everything returns the space: a big add still fits after
	// churning.
	for i := 0; i < 9; i++ {
		if err := f.Remove(0); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := f.Count(); n != 0 {
		t.Fatalf("count = %d after removing all", n)
	}
	for i := 0; i < 1000; i++ {
		if err := f.Add(SyntheticShape(i)); err != nil {
			t.Fatalf("add %d after churn: %v", i, err)
		}
	}
}

func TestSegAndASCIIAgree(t *testing.T) {
	// The same figure through both representations is identical.
	f, _, _ := segFig(t)
	var shapes []Shape
	for i := 0; i < 15; i++ {
		s := SyntheticShape(i)
		f.Add(s)
		shapes = append([]Shape{s}, shapes...)
	}
	segShapes, err := f.Shapes()
	if err != nil {
		t.Fatal(err)
	}
	ascii, err := Decode(Encode(shapes))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(segShapes, ascii) {
		t.Fatal("representations diverge")
	}
}

func TestAttachRejectsRawSegment(t *testing.T) {
	as := addrspace.New(mem.NewPhysical(0))
	as.MapAnon(0x30300000, 4096, addrspace.ProtRW)
	if _, err := Attach(as, 0x30300000); !errors.Is(err, ErrBadFigure) {
		t.Fatalf("raw segment accepted: %v", err)
	}
}
