// Package fig reproduces the paper's xfig case study. While editing, xfig
// maintains linked lists that represent the objects comprising a figure.
// The original translated those lists to and from a pointer-free ASCII
// representation when reading and writing files, while ALSO maintaining
// pointer-rich copy routines to duplicate objects within a figure. "The
// Hemlock version of xfig uses the pre-existing copy routines for files,
// at a savings of over 800 lines of code" — saving is instantaneous
// because the figure already lives in a persistent segment, and copying a
// figure file is the same pointer-walk used to duplicate an object.
//
// Two representations of the same figure model:
//
//   - SegFigure: the linked list lives in a shared segment via the
//     per-segment allocator; nodes hold absolute pointers; "save" is a
//     no-op and "load" is Attach;
//   - the ASCII codec (Encode/Decode) plus Save/Load over the simulated
//     file system: the baseline translation path.
package fig

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"hemlock/internal/shalloc"
	"hemlock/internal/shmfs"
)

// Shape kinds.
const (
	KindLine   = 1
	KindCircle = 2
	KindText   = 3
)

// Shape is one figure object.
type Shape struct {
	Kind  uint32
	X, Y  int32
	W, H  int32
	Label string
}

// ErrBadFigure is returned for malformed ASCII figures or segments.
var ErrBadFigure = errors.New("fig: malformed figure")

// ---- ASCII representation (the baseline) ------------------------------------------

// Encode translates the pointer-rich list into the pointer-free ASCII
// form xfig writes to disk.
func Encode(shapes []Shape) []byte {
	var b strings.Builder
	b.WriteString("#FIG-lite 1.0\n")
	fmt.Fprintf(&b, "objects %d\n", len(shapes))
	for _, s := range shapes {
		fmt.Fprintf(&b, "%d %d %d %d %d %s\n", s.Kind, s.X, s.Y, s.W, s.H,
			strconv.Quote(s.Label))
	}
	return []byte(b.String())
}

// Decode parses the ASCII form back into shapes.
func Decode(data []byte) ([]Shape, error) {
	lines := strings.Split(string(data), "\n")
	if len(lines) < 2 || lines[0] != "#FIG-lite 1.0" {
		return nil, fmt.Errorf("%w: bad header", ErrBadFigure)
	}
	var count int
	if _, err := fmt.Sscanf(lines[1], "objects %d", &count); err != nil {
		return nil, fmt.Errorf("%w: bad object count", ErrBadFigure)
	}
	// One object per line: a count the lines cannot hold is a lie, and
	// must not size the allocation.
	if count < 0 || count > len(lines)-2 {
		return nil, fmt.Errorf("%w: header says %d objects in %d lines", ErrBadFigure, count, len(lines)-2)
	}
	shapes := make([]Shape, 0, count)
	for _, line := range lines[2:] {
		if strings.TrimSpace(line) == "" {
			continue
		}
		parts := strings.SplitN(line, " ", 6)
		if len(parts) != 6 {
			return nil, fmt.Errorf("%w: %q", ErrBadFigure, line)
		}
		var s Shape
		kind, err := strconv.ParseUint(parts[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("%w: %q", ErrBadFigure, line)
		}
		vals := make([]int64, 5)
		for i := 1; i < 5; i++ {
			v, err := strconv.ParseInt(parts[i], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("%w: %q", ErrBadFigure, line)
			}
			vals[i] = v
		}
		label, err := strconv.Unquote(parts[5])
		if err != nil {
			return nil, fmt.Errorf("%w: label %q", ErrBadFigure, parts[5])
		}
		s.Kind, s.X, s.Y, s.W, s.H = uint32(kind), int32(vals[1]), int32(vals[2]), int32(vals[3]), int32(vals[4])
		s.Label = label
		shapes = append(shapes, s)
	}
	if len(shapes) != count {
		return nil, fmt.Errorf("%w: %d shapes, header says %d", ErrBadFigure, len(shapes), count)
	}
	return shapes, nil
}

// SaveASCII writes the figure to a file the baseline way: translate then
// write.
func SaveASCII(fs *shmfs.FS, path string, shapes []Shape, uid int) error {
	return fs.WriteFile(path, Encode(shapes), shmfs.DefaultFileMode, uid)
}

// LoadASCII reads a figure the baseline way: read then parse.
func LoadASCII(fs *shmfs.FS, path string, uid int) ([]Shape, error) {
	data, err := fs.ReadFile(path, uid)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// ---- segment representation (the Hemlock version) ----------------------------------

// Node layout: 7 words.
const (
	nKind  = 0
	nX     = 4
	nY     = 8
	nW     = 12
	nH     = 16
	nLabel = 20 // pointer to [len | bytes] block, 0 = empty
	nNext  = 24 // pointer to next node, 0 = end
	nSize  = 28
)

const (
	rootMagic = 0x58464947 // "XFIG"
	rootHead  = 4
	rootCount = 8
	rootSize  = 16
)

// SegFigure is a figure living inside a shared segment.
type SegFigure struct {
	m    shalloc.Mem
	base uint32
	heap *shalloc.Heap
}

// Create formats a fresh figure across [base, base+size).
func Create(m shalloc.Mem, base, size uint32) (*SegFigure, error) {
	h, err := shalloc.Init(m, base+rootSize, size-rootSize)
	if err != nil {
		return nil, err
	}
	for off, v := range map[uint32]uint32{base: rootMagic, base + rootHead: 0, base + rootCount: 0} {
		if err := m.StoreWord(off, v); err != nil {
			return nil, err
		}
	}
	return &SegFigure{m: m, base: base, heap: h}, nil
}

// Attach opens an existing figure — this is the whole "load" path of the
// Hemlock xfig.
func Attach(m shalloc.Mem, base uint32) (*SegFigure, error) {
	w, err := m.LoadWord(base)
	if err != nil {
		return nil, err
	}
	if w != rootMagic {
		return nil, fmt.Errorf("%w: no figure at 0x%08x", ErrBadFigure, base)
	}
	h, err := shalloc.Attach(m, base+rootSize)
	if err != nil {
		return nil, err
	}
	return &SegFigure{m: m, base: base, heap: h}, nil
}

// Count returns the number of objects.
func (f *SegFigure) Count() (int, error) {
	n, err := f.m.LoadWord(f.base + rootCount)
	return int(n), err
}

func (f *SegFigure) allocLabel(s string) (uint32, error) {
	if s == "" {
		return 0, nil
	}
	p, err := f.heap.Alloc(uint32(4 + len(s)))
	if err != nil {
		return 0, err
	}
	if err := f.m.StoreWord(p, uint32(len(s))); err != nil {
		return 0, err
	}
	for j := 0; j < len(s); j += 4 {
		var w uint32
		for k := 0; k < 4 && j+k < len(s); k++ {
			w |= uint32(s[j+k]) << uint(24-8*k)
		}
		if err := f.m.StoreWord(p+4+uint32(j), w); err != nil {
			return 0, err
		}
	}
	return p, nil
}

func (f *SegFigure) readLabel(p uint32) (string, error) {
	if p == 0 {
		return "", nil
	}
	n, err := f.m.LoadWord(p)
	if err != nil {
		return "", err
	}
	if n > shmfs.MaxFile {
		return "", fmt.Errorf("%w: label length %d", ErrBadFigure, n)
	}
	out := make([]byte, 0, n)
	for j := uint32(0); j < n; j += 4 {
		w, err := f.m.LoadWord(p + 4 + j)
		if err != nil {
			return "", err
		}
		for k := uint32(0); k < 4 && j+k < n; k++ {
			out = append(out, byte(w>>uint(24-8*k)))
		}
	}
	return string(out), nil
}

// writeNode fills a node block from a shape (label freshly allocated).
func (f *SegFigure) writeNode(node uint32, s Shape, next uint32) error {
	label, err := f.allocLabel(s.Label)
	if err != nil {
		return err
	}
	for off, v := range map[uint32]uint32{
		node + nKind: s.Kind, node + nX: uint32(s.X), node + nY: uint32(s.Y),
		node + nW: uint32(s.W), node + nH: uint32(s.H),
		node + nLabel: label, node + nNext: next,
	} {
		if err := f.m.StoreWord(off, v); err != nil {
			return err
		}
	}
	return nil
}

func (f *SegFigure) readNode(node uint32) (Shape, uint32, error) {
	var s Shape
	words := make([]uint32, 7)
	for i := range words {
		w, err := f.m.LoadWord(node + uint32(4*i))
		if err != nil {
			return s, 0, err
		}
		words[i] = w
	}
	s.Kind, s.X, s.Y = words[0], int32(words[1]), int32(words[2])
	s.W, s.H = int32(words[3]), int32(words[4])
	var err error
	if s.Label, err = f.readLabel(words[5]); err != nil {
		return s, 0, err
	}
	return s, words[6], nil
}

// Add prepends a shape to the list (xfig draws newest-first).
func (f *SegFigure) Add(s Shape) error {
	node, err := f.heap.Alloc(nSize)
	if err != nil {
		return err
	}
	head, err := f.m.LoadWord(f.base + rootHead)
	if err != nil {
		return err
	}
	if err := f.writeNode(node, s, head); err != nil {
		return err
	}
	if err := f.m.StoreWord(f.base+rootHead, node); err != nil {
		return err
	}
	n, err := f.m.LoadWord(f.base + rootCount)
	if err != nil {
		return err
	}
	return f.m.StoreWord(f.base+rootCount, n+1)
}

// Shapes walks the list and materialises every shape, newest first.
func (f *SegFigure) Shapes() ([]Shape, error) {
	var out []Shape
	node, err := f.m.LoadWord(f.base + rootHead)
	if err != nil {
		return nil, err
	}
	for node != 0 {
		s, next, err := f.readNode(node)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		node = next
		if len(out) > 1<<20 {
			return nil, fmt.Errorf("%w: list cycle", ErrBadFigure)
		}
	}
	return out, nil
}

// Duplicate copies the shape at index i (0 = newest) and prepends the
// copy: the pointer-rich copy routine xfig already had, operating directly
// on segment memory.
func (f *SegFigure) Duplicate(i int) error {
	node, err := f.m.LoadWord(f.base + rootHead)
	if err != nil {
		return err
	}
	for ; i > 0 && node != 0; i-- {
		if node, err = f.m.LoadWord(node + nNext); err != nil {
			return err
		}
	}
	if node == 0 {
		return fmt.Errorf("%w: index out of range", ErrBadFigure)
	}
	s, _, err := f.readNode(node)
	if err != nil {
		return err
	}
	return f.Add(s)
}

// Remove deletes the shape at index i, freeing its node and label back to
// the segment heap.
func (f *SegFigure) Remove(i int) error {
	prev := f.base + rootHead
	node, err := f.m.LoadWord(prev)
	if err != nil {
		return err
	}
	for ; i > 0 && node != 0; i-- {
		prev = node + nNext
		if node, err = f.m.LoadWord(prev); err != nil {
			return err
		}
	}
	if node == 0 {
		return fmt.Errorf("%w: index out of range", ErrBadFigure)
	}
	next, err := f.m.LoadWord(node + nNext)
	if err != nil {
		return err
	}
	if err := f.m.StoreWord(prev, next); err != nil {
		return err
	}
	label, err := f.m.LoadWord(node + nLabel)
	if err != nil {
		return err
	}
	if label != 0 {
		if err := f.heap.Free(label); err != nil {
			return err
		}
	}
	if err := f.heap.Free(node); err != nil {
		return err
	}
	n, err := f.m.LoadWord(f.base + rootCount)
	if err != nil {
		return err
	}
	return f.m.StoreWord(f.base+rootCount, n-1)
}

// SyntheticShape generates a deterministic shape for workload i.
func SyntheticShape(i int) Shape {
	kinds := []uint32{KindLine, KindCircle, KindText}
	s := Shape{
		Kind: kinds[i%3],
		X:    int32(i * 13 % 1000),
		Y:    int32(i * 29 % 800),
		W:    int32(i%200 + 1),
		H:    int32(i%120 + 1),
	}
	if s.Kind == KindText {
		s.Label = fmt.Sprintf("label-%d", i)
	}
	return s
}
