// Package lds implements Hemlock's static linker — in the real system a
// wrapper around the IRIX ld; here a stand-alone linker with the wrapper's
// full contract (section 3 of the paper):
//
//   - the four sharing classes are assigned module-by-module in the link
//     arguments;
//   - a new instance of every static private module is linked into the
//     load image;
//   - static public modules that do not yet exist are created in the
//     shared file system, next to their template and named by dropping the
//     final ".o", internally relocated to their unique, globally-agreed
//     virtual address; they are NOT copied into the load image;
//   - references to symbols in static modules are resolved; references to
//     symbols in dynamic modules are not — lds does not even insist that
//     those modules exist yet (it warns and continues); it saves the module
//     names and search-path information in the load image for ldl;
//   - relocation information that IRIX ld would discard is retained in an
//     explicit data structure (Image.Relocs), and a special crt0 start-up
//     module is linked in so that ldl gets a chance to run before main;
//   - static modules are located via the search strategy: (1) the current
//     directory, (2) the -L command-line path, (3) LD_LIBRARY_PATH, (4)
//     the default library directories.
package lds

import (
	"errors"
	"fmt"
	"strings"

	"hemlock/internal/isa"
	"hemlock/internal/layout"
	"hemlock/internal/linker"
	"hemlock/internal/mem"
	"hemlock/internal/objfile"
	"hemlock/internal/shmfs"
)

// Errors.
var (
	ErrStaticModuleMissing = errors.New("lds: cannot find static module")
	ErrPrivateIntoPublic   = errors.New("lds: public module references a private symbol")
	ErrImageTooLarge       = errors.New("lds: image exceeds private text region")
	ErrInstanceLayout      = errors.New("lds: public module instance does not match its template's layout")
)

// Input names one module argument with its sharing class.
type Input struct {
	Name  string
	Class objfile.Class
}

// Options configures a link.
type Options struct {
	Output  string  // image name (informational)
	Modules []Input // the modules, in link order

	LinkDir     string   // directory in which static linking occurs (search step 1)
	CmdPath     []string // -L directories (search step 2)
	EnvPath     []string // LD_LIBRARY_PATH at static link time (step 3)
	DefaultPath []string // default library directories (step 4)

	UID int // identity used for shared-file-system access

	// JumpTables enables the SunOS-style lazy-linking optimisation the
	// paper plans to adopt: calls to symbols unknown at static link time
	// are routed through jump-table stubs that trap to ldl on first call,
	// instead of being resolved eagerly at start-up. Data references are
	// still resolved at load time, as in SunOS.
	JumpTables bool
}

// PLT stub geometry: break (traps to ldl), the stub's index word (for
// diagnostics), and a pad word, leaving exactly enough room for the
// trampoline (lui/ori/jr) the resolver patches in.
const pltStubSize = 12

// crt0Src is the alternative version of the Unix program start-up module:
// it gives ldl a chance to run prior to normal execution (the simulation
// runs ldl from the host side before starting the CPU) and converts main's
// return value into an exit system call.
const crt0Src = `
        .text
        .globl  __start
        .extern main
__start:
        jal     main
        move    $a0, $v0
        li      $v0, 1
        syscall
`

// Result carries the image plus the warnings lds printed.
type Result struct {
	Image    *objfile.Image
	Warnings []string
}

// Linker is a static linker bound to a shared file system, from which it
// reads templates and in which it creates public module instances.
type Linker struct {
	FS *shmfs.FS
}

// New returns a static linker over fs.
func New(fs *shmfs.FS) *Linker { return &Linker{FS: fs} }

// SearchDirs returns the static-link search order for the given options.
func SearchDirs(o *Options) []string {
	dirs := make([]string, 0, 1+len(o.CmdPath)+len(o.EnvPath)+len(o.DefaultPath))
	if o.LinkDir != "" {
		dirs = append(dirs, o.LinkDir)
	}
	dirs = append(dirs, o.CmdPath...)
	dirs = append(dirs, o.EnvPath...)
	dirs = append(dirs, o.DefaultPath...)
	return dirs
}

// FindModule locates a module template by name along dirs. Absolute names
// resolve directly. It returns the full path of the first hit.
func (l *Linker) FindModule(name string, dirs []string) (string, bool) {
	if strings.HasPrefix(name, "/") {
		if st, err := l.FS.StatPath(name); err == nil && st.Type == shmfs.TypeFile {
			return shmfs.Clean(name), true
		}
		return "", false
	}
	for _, d := range dirs {
		p := shmfs.Clean(d + "/" + name)
		if st, err := l.FS.StatPath(p); err == nil && st.Type == shmfs.TypeFile {
			return p, true
		}
	}
	return "", false
}

// InstancePath derives the public-module instance path from its template
// path: same directory, final ".o" dropped.
func InstancePath(templatePath string) string {
	return strings.TrimSuffix(templatePath, ".o")
}

// loadTemplate reads and decodes a HEMO template.
func (l *Linker) loadTemplate(path string, uid int) (*objfile.Object, error) {
	data, err := l.FS.ReadFile(path, uid)
	if err != nil {
		return nil, fmt.Errorf("lds: reading %s: %w", path, err)
	}
	o, err := objfile.DecodeBytes(data)
	if err != nil {
		return nil, fmt.Errorf("lds: %s: %w", path, err)
	}
	return o, nil
}

// CheckInstance places the template obj, read from templatePath, at the
// existing public instance inst (whose stat is st). An instance must be
// exactly as large as its template lays out to at its address. One that is
// not was written under another layout (by an older linker, or from a
// template since re-assembled with other section sizes), so its bytes are
// not where obj's symbols say: CheckInstance returns ErrInstanceLayout,
// naming both sizes. The check sees sizes only, so an instance written
// under another layout that happens to have the same size passes it. An
// empty layout places nothing, so any instance matches it; mapping an
// empty instance grows its file to one page.
func CheckInstance(inst string, st shmfs.Stat, templatePath string, obj *objfile.Object) (*linker.Placed, error) {
	p, err := linker.Place(obj, st.Addr)
	if err != nil {
		return nil, err
	}
	if st.Size != p.Size() && p.Size() > 0 {
		return nil, fmt.Errorf("%w: %s is %d bytes but %s lays out to %d",
			ErrInstanceLayout, inst, st.Size, templatePath, p.Size())
	}
	return p, nil
}

// CreatePublicInstance returns the persistent instance of a public module,
// placed at the address of its inode slot, creating it if absent: a file
// next to the template named by dropping ".o", made from obj (the decoded
// template) and internally relocated to that address. It also reports
// whether this call created the instance. An existing instance that fails
// CheckInstance is an error, and the file is left as it is.
func (l *Linker) CreatePublicInstance(templatePath string, obj *objfile.Object, uid int) (string, *linker.Placed, bool, error) {
	inst := InstancePath(templatePath)
	if st, err := l.FS.StatPath(inst); err == nil {
		p, err := CheckInstance(inst, st, templatePath, obj)
		if err != nil {
			return "", nil, false, err
		}
		return inst, p, false, nil
	}
	st, err := l.FS.Create(inst, shmfs.DefaultFileMode|shmfs.ModeOtherWrite, uid)
	if err != nil {
		return "", nil, false, fmt.Errorf("lds: creating public module %s: %w", inst, err)
	}
	p, err := linker.Place(obj, st.Addr)
	if err != nil {
		l.FS.Unlink(inst, uid)
		return "", nil, false, err
	}
	if p.Size() > shmfs.MaxFile {
		l.FS.Unlink(inst, uid)
		return "", nil, false, fmt.Errorf("lds: module %s (%d bytes) exceeds the 1 MB segment limit", obj.Name, p.Size())
	}
	img := make([]byte, p.Size())
	copy(img, p.Image())
	if _, err := p.RelocateInternal(&linker.BytesPatcher{Base: st.Addr, B: img}); err != nil {
		l.FS.Unlink(inst, uid)
		return "", nil, false, err
	}
	if _, err := l.FS.WriteAt(inst, 0, img, uid); err != nil {
		l.FS.Unlink(inst, uid)
		return "", nil, false, err
	}
	return inst, p, true, nil
}

// Link performs a static link.
func (l *Linker) Link(o *Options) (*Result, error) {
	res := &Result{}
	dirs := SearchDirs(o)

	crt0, err := isa.Assemble("crt0.o", crt0Src)
	if err != nil {
		return nil, fmt.Errorf("lds: internal crt0: %w", err)
	}

	// Static modules form a tree: the command-line inputs are the roots,
	// and each module's own list (.dep) pulls in children, located along
	// the module's own search path first — scoped STATIC linking, the
	// "fully-functional static linker" the paper promises to replace its
	// ld wrapper with. Private children are new instances per parent
	// (Figure 2 shows two separate G.o boxes); public children are the
	// single persistent instance.
	type node struct {
		obj      *objfile.Object
		path     string
		parent   *node
		children []*node          // private static children, in dep order
		pubs     []*linker.Placed // public static deps placed at this scope
		placed   *linker.Placed
	}
	var allNodes []*node
	root := &node{} // pseudo-node: the program; "children" are the inputs
	crt0Node := &node{obj: crt0, path: "(crt0)", parent: root}
	root.children = append(root.children, crt0Node)
	allNodes = append(allNodes, crt0Node)

	dyn := objfile.DynInfo{
		LinkDir:     o.LinkDir,
		CmdPath:     append([]string(nil), o.CmdPath...),
		EnvPath:     append([]string(nil), o.EnvPath...),
		DefaultPath: append([]string(nil), o.DefaultPath...),
	}

	// scopeDirs: a module's own search path, then its ancestors', then the
	// command-line search order.
	scopeDirs := func(n *node) []string {
		var out []string
		for s := n; s != nil; s = s.parent {
			if s.obj != nil {
				out = append(out, s.obj.SearchPath...)
			}
		}
		return append(out, dirs...)
	}

	// placePublic creates (if needed) a public instance and returns it
	// placed at its fixed address.
	placePublic := func(tmplPath string) (*linker.Placed, error) {
		obj, err := l.loadTemplate(tmplPath, o.UID)
		if err != nil {
			return nil, err
		}
		inst, pp, _, err := l.CreatePublicInstance(tmplPath, obj, o.UID)
		if err != nil {
			return nil, err
		}
		dyn.StaticPublic = append(dyn.StaticPublic, objfile.StaticPublicRef{
			Name:     obj.Name,
			Path:     inst,
			Template: tmplPath,
			Addr:     pp.Base,
		})
		return pp, nil
	}

	const maxStaticDepth = 32
	var expand func(n *node, depth int) error
	expand = func(n *node, depth int) error {
		if depth > maxStaticDepth {
			return fmt.Errorf("lds: static module list deeper than %d (cycle?) at %s", maxStaticDepth, n.path)
		}
		for _, dep := range n.obj.Deps {
			if !dep.Class.Static() {
				continue // dynamic deps are ldl's job, driven by the module's own metadata
			}
			path, ok := l.FindModule(dep.Name, scopeDirs(n))
			if !ok {
				return fmt.Errorf("%w: %s (needed by %s)", ErrStaticModuleMissing, dep.Name, n.obj.Name)
			}
			if dep.Class == objfile.StaticPublic {
				pp, err := placePublic(path)
				if err != nil {
					return err
				}
				n.pubs = append(n.pubs, pp)
				continue
			}
			obj, err := l.loadTemplate(path, o.UID)
			if err != nil {
				return err
			}
			child := &node{obj: obj, path: path, parent: n}
			n.children = append(n.children, child)
			allNodes = append(allNodes, child)
			if err := expand(child, depth+1); err != nil {
				return err
			}
		}
		return nil
	}

	for _, in := range o.Modules {
		switch in.Class {
		case objfile.StaticPrivate, objfile.StaticPublic:
			path, ok := l.FindModule(in.Name, dirs)
			if !ok {
				// "Lds aborts linking if it cannot find a given static
				// module."
				return nil, fmt.Errorf("%w: %s", ErrStaticModuleMissing, in.Name)
			}
			if in.Class == objfile.StaticPublic {
				pp, err := placePublic(path)
				if err != nil {
					return nil, err
				}
				root.pubs = append(root.pubs, pp)
				continue
			}
			obj, err := l.loadTemplate(path, o.UID)
			if err != nil {
				return nil, err
			}
			n := &node{obj: obj, path: path, parent: root}
			root.children = append(root.children, n)
			allNodes = append(allNodes, n)
			if err := expand(n, 1); err != nil {
				return nil, err
			}
		case objfile.DynamicPrivate, objfile.DynamicPublic:
			// "It issues a warning message and continues linking if it
			// cannot find a given dynamic module."
			if _, ok := l.FindModule(in.Name, dirs); !ok {
				res.Warnings = append(res.Warnings,
					fmt.Sprintf("lds: warning: dynamic module %s does not exist yet", in.Name))
			}
			dyn.DynModules = append(dyn.DynModules, objfile.ModuleRef{Name: in.Name, Class: in.Class})
		}
	}

	// Lay out every private static module (roots and scoped children)
	// sequentially from TextBase. linker.Place keeps each module's data and
	// bss off its code pages; here a module whose first bytes are code
	// moves to a fresh page when the module below it ends in data or bss,
	// so code never follows writable bytes on a page. A module of only
	// data or bss still packs onto the code page below it: moving it too
	// would store a page of zero padding in the image, which every launch
	// by path decodes and hashes.
	cursor := layout.TextBase
	tailWritable := false // the last non-empty module placed ends in data or bss
	var placed []*linker.Placed
	for _, n := range allNodes {
		if tailWritable && (len(n.obj.Text) > 0 || linker.TrampolineReserve(n.obj) > 0) {
			cursor = mem.PageCeil(cursor)
		}
		p, err := linker.Place(n.obj, cursor)
		if err != nil {
			return nil, err
		}
		if p.Size() > 0 {
			tailWritable = p.Writable()
		}
		n.placed = p
		placed = append(placed, p)
		cursor = align16(cursor + p.Size())
		if cursor > layout.TextLimit {
			return nil, fmt.Errorf("%w: %d bytes", ErrImageTooLarge, cursor-layout.TextBase)
		}
	}
	// Code past the modules (jump-table stubs, then the image trampoline
	// area) starts on a fresh page when the last module ends in writable
	// bytes.
	codeBase := cursor
	if tailWritable {
		codeBase = mem.PageCeil(cursor)
	}
	// The image-level trampoline area serves retained relocations that ldl
	// will resolve at run time (targets in the shared region cannot be
	// reached by a 26-bit jump from here). Its base is fixed once its size
	// is known, so an empty area adds no padding.
	var trampSize uint32

	// The flat (root) symbol table: exports of the root-level modules
	// only. Children's exports stay inside their scope — that is the
	// point of scoped linking.
	table := linker.NewTable()
	for _, n := range root.children {
		if err := table.AddExports(n.placed); err != nil {
			return nil, err
		}
	}
	for _, pp := range root.pubs {
		if err := table.AddExports(pp); err != nil {
			return nil, err
		}
	}

	// Scoped resolution for a module: its own children and public deps
	// first, then its ancestors', then the flat table at the root.
	resolverFor := func(n *node) linker.Resolver {
		return func(name string) (uint32, bool) {
			for s := n; s != nil; s = s.parent {
				for _, c := range s.children {
					if addr, ok := exportOf(c.placed, name); ok {
						return addr, true
					}
				}
				for _, pp := range s.pubs {
					if addr, ok := exportOf(pp, name); ok {
						return addr, true
					}
				}
				if s == root {
					if addr, ok := table.Resolve(name); ok {
						return addr, true
					}
				}
			}
			return 0, false
		}
	}

	// Build the image bytes and resolve what can be resolved now.
	img := make([]byte, cursor-layout.TextBase)
	for _, p := range placed {
		copy(img[p.Base-layout.TextBase:], p.Image())
	}
	pat := &linker.BytesPatcher{Base: layout.TextBase, B: img}
	var retained []objfile.ImageReloc
	for _, n := range allNodes {
		p := n.placed
		pending, err := p.ApplyRelocs(nil, resolverFor(n), pat)
		if err != nil {
			return nil, err
		}
		for _, r := range pending {
			sym := p.Obj.Symbols[r.Sym]
			retained = append(retained, objfile.ImageReloc{
				Addr:   p.SiteAddr(&r),
				Name:   sym.Name,
				Type:   r.Type,
				Addend: r.Addend,
			})
			if r.Type == objfile.RelJump26 {
				trampSize += isa.TrampolineSize
			}
		}
	}
	// Jump tables: route retained calls through PLT stubs appended to the
	// image text, so ldl need not resolve them at start-up at all.
	var plt []objfile.ImageSym
	if o.JumpTables {
		stubFor := map[string]uint32{}
		var kept []objfile.ImageReloc
		var pltBytes []byte
		for _, r := range retained {
			if r.Type != objfile.RelJump26 || r.Addend != 0 {
				kept = append(kept, r)
				continue
			}
			stub, ok := stubFor[r.Name]
			if !ok {
				stub = codeBase + uint32(len(pltBytes))
				stubFor[r.Name] = stub
				idx := uint32(len(plt))
				words := []uint32{
					isa.EncodeR(isa.FnBREAK, 0, 0, 0, 0),
					idx,
					isa.Nop,
				}
				for _, w := range words {
					pltBytes = append(pltBytes, byte(w>>24), byte(w>>16), byte(w>>8), byte(w))
				}
				plt = append(plt, objfile.ImageSym{Name: r.Name, Addr: stub, Size: pltStubSize})
			}
			w, err := pat.LoadWord(r.Addr)
			if err != nil {
				return nil, err
			}
			if !isa.JumpReach(r.Addr, stub) {
				return nil, fmt.Errorf("lds: PLT stub at 0x%08x unreachable from 0x%08x", stub, r.Addr)
			}
			if err := pat.StoreWord(r.Addr, isa.PatchJump26(w, stub)); err != nil {
				return nil, err
			}
			trampSize -= isa.TrampolineSize // the stub replaces the tramp slot
		}
		retained = kept
		if len(pltBytes) > 0 {
			img = append(append(img, make([]byte, codeBase-cursor)...), pltBytes...)
			cursor = codeBase + uint32(len(pltBytes))
			tailWritable = false
		}
	}
	trampBase := cursor
	if trampSize > 0 && tailWritable {
		trampBase = codeBase
	}

	if len(retained) > 0 {
		var names []string
		seen := map[string]bool{}
		for _, r := range retained {
			if !seen[r.Name] {
				seen[r.Name] = true
				names = append(names, r.Name)
			}
		}
		res.Warnings = append(res.Warnings,
			fmt.Sprintf("lds: note: %d reference(s) retained for run-time linking: %s",
				len(retained), strings.Join(names, ", ")))
	}
	if len(plt) > 0 {
		res.Warnings = append(res.Warnings,
			fmt.Sprintf("lds: note: %d call(s) routed through jump-table stubs", len(plt)))
	}

	entry, ok := placed[0].AddrOf("__start")
	if !ok {
		return nil, fmt.Errorf("lds: crt0 has no __start")
	}
	// The image's bss is its trampoline area, so exec maps it.
	res.Image = &objfile.Image{
		Name:      o.Output,
		Entry:     entry,
		TextBase:  layout.TextBase,
		Text:      img,
		DataBase:  layout.TextBase + uint32(len(img)),
		BssBase:   trampBase,
		BssSize:   trampSize,
		TrampBase: trampBase,
		TrampSize: trampSize,
		Symbols:   table.Symbols(),
		Relocs:    retained,
		Dyn:       dyn,
		PLT:       plt,
	}
	return res, nil
}

func align16(v uint32) uint32 { return (v + 15) &^ 15 }

// exportOf returns the address of a global, defined symbol exported by a
// placed module.
func exportOf(p *linker.Placed, name string) (uint32, bool) {
	i := p.Obj.SymbolIndex(name)
	if i < 0 {
		return 0, false
	}
	s := p.Obj.Symbols[i]
	if !s.Global || !s.Defined() {
		return 0, false
	}
	return p.SymAddr(i)
}
