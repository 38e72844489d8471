// Package ldl implements Hemlock's lazy dynamic linker and its user-level
// fault handler (sections 2-3 of the paper).
//
// At process start-up (invoked by the special crt0 that lds links in), ldl
//
//   - maps the static public modules recorded in the load image, creating
//     from their templates any that do not yet exist;
//   - locates each dynamic module using the run-time search strategy —
//     (1) the LD_LIBRARY_PATH environment variable now, (2) the directories
//     in which lds searched at static link time — creating new instances of
//     dynamic private modules and of dynamic public modules that do not yet
//     exist (creation of shared segments is synchronized with file
//     locking);
//   - maps every module with undefined references WITHOUT access
//     permissions, so that the first reference causes a segmentation fault;
//   - resolves undefined references from the main load image to objects in
//     the dynamic modules, even though their locations were not known at
//     static link time.
//
// The fault handler serves two purposes: it implements lazy linking (a
// fault in a lazily-mapped module resolves that module's references,
// mapping in — possibly inaccessibly — any new modules that are needed),
// and it lets the process follow pointers into shared segments that are
// not yet mapped (it asks the kernel to translate the address to a path
// name and maps the named segment). Afterwards the faulting instruction
// restarts.
//
// Scoped linking: when module M is brought in, its undefined references
// are resolved first against the external symbols of modules on M's own
// module list and search path; remaining references move up to M's parent,
// then grandparent, and so on to the root. References undefined at the
// root are left unresolved; touching them segfaults, and a program-provided
// handler may attempt recovery.
package ldl

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"hemlock/internal/addrspace"
	"hemlock/internal/isa"
	"hemlock/internal/kern"
	"hemlock/internal/layout"
	"hemlock/internal/lds"
	"hemlock/internal/linker"
	"hemlock/internal/mem"
	"hemlock/internal/objfile"
	"hemlock/internal/obsv"
	"hemlock/internal/shmfs"
)

// Errors.
var (
	ErrModuleNotFound    = errors.New("ldl: cannot find dynamic module")
	ErrPrivateIntoPublic = errors.New("ldl: public module resolved against a private symbol (addresses in the private region are overloaded)")
	ErrNoTrampoline      = errors.New("ldl: image trampoline area exhausted")
)

// Stats counts linker activity; the lazy-vs-eager experiment reads it.
// Every field is mirrored by a counter or gauge in the kernel's obsv
// registry (ldl.modules_mapped, ldl.lazy_links, ...), and the two always
// agree: both are updated at the same site under the world lock.
type Stats struct {
	ModulesMapped  int // instances mapped into some address space
	ModulesCreated int // public instances created from templates
	LazyLinks      int // modules linked on first touch
	RelocsApplied  int
	PointerMaps    int // segments mapped by pointer-following faults

	// ImageRelocsLeft is the total number of retained load-image
	// relocations still pending across every process the world has
	// started: process start-up and fork add their pending counts,
	// resolution subtracts. (It used to be overwritten with the latest
	// process's count, which was meaningless with more than one program
	// running.)
	ImageRelocsLeft int

	PLTResolves int // jump-table stubs patched on first call
}

// shared is the kernel-wide state of one public module instance.
type shared struct {
	path    string
	placed  *linker.Placed
	exports map[string]int // the template's export index

	// lmu serializes linking of this module: two processes (on two guest
	// CPUs) faulting into the same unlinked public module must not both
	// run the resolve-and-patch loop — pending and the shared file are one
	// copy fleet-wide. linked is atomic so the fast path (Linked, the
	// bring-in protection choice) stays lock-free.
	lmu     sync.Mutex
	pending []objfile.Reloc
	linked  atomic.Bool
}

// World is the kernel-wide dynamic-linker state: public modules are linked
// once and shared by every process, because their symbols resolve to
// globally-agreed public addresses.
type World struct {
	K  *kern.Kernel
	LD *lds.Linker

	mu     sync.Mutex
	public map[string]*shared
	Stats  Stats

	// Registry-backed mirrors of Stats (see Stats doc).
	ctrMapped  *obsv.Counter
	ctrCreated *obsv.Counter
	ctrLazy    *obsv.Counter
	ctrRelocs  *obsv.Counter
	ctrPtrMaps *obsv.Counter
	ctrPLT     *obsv.Counter
	gImageLeft *obsv.Gauge

	// stable turns on stable linking: launches clone a parked zygote
	// (core checks it) and decoded templates are memoized. Off by default:
	// a bare World reads every template afresh.
	stable bool

	// Decoded files, by path and content fingerprint (filememo.go):
	// templates under stable linking, executables always.
	// core.exe_cache_{hit,miss}, named for core.System.LoadExecutable,
	// count the executable loads.
	objMemo               fileMemo[*template]
	exeMemo               fileMemo[*objfile.Image]
	ctrExeHit, ctrExeMiss *obsv.Counter

	// Launch singleflight (see LockLaunch): in-flight launches by content
	// key, so concurrent identical launches from the serve daemon or an
	// SMP workload produce exactly one cold link.
	lgmu     sync.Mutex
	inflight map[uint64]chan struct{}
}

// SetStableLinking turns stable linking on or off (see World.stable).
func (w *World) SetStableLinking(on bool) { w.stable = on }

// StableLinking reports whether stable linking is on.
func (w *World) StableLinking() bool { return w.stable }

// tracer returns the kernel-wide event tracer (nil-safe).
func (w *World) tracer() *obsv.Tracer { return w.K.Obs.Tracer() }

// emit sends a typed linker event to the kernel tracer when enabled.
func (w *World) emit(e obsv.Event) {
	if t := w.tracer(); t.Enabled() {
		e.Subsys = "ldl"
		t.Emit(e)
	}
}

// addImageRelocs delta-adjusts the pending retained-reloc aggregate in
// both the Stats struct and the registry gauge.
func (w *World) addImageRelocs(delta int) {
	if delta == 0 {
		return
	}
	w.mu.Lock()
	w.Stats.ImageRelocsLeft += delta
	w.mu.Unlock()
	w.gImageLeft.Add(int64(delta))
}

// NewWorld creates the dynamic-linker state for a kernel.
func NewWorld(k *kern.Kernel) *World {
	r := k.Obs.Registry()
	return &World{
		K: k, LD: lds.New(k.FS), public: map[string]*shared{},
		ctrMapped:  r.Counter("ldl.modules_mapped"),
		ctrCreated: r.Counter("ldl.modules_created"),
		ctrLazy:    r.Counter("ldl.lazy_links"),
		ctrRelocs:  r.Counter("ldl.relocs_applied"),
		ctrPtrMaps: r.Counter("ldl.pointer_maps"),
		ctrPLT:     r.Counter("ldl.plt_resolves"),
		gImageLeft: r.Gauge("ldl.image_relocs_left"),
		inflight:   map[uint64]chan struct{}{},
		objMemo:    fileMemo[*template]{max: memoSize},
		exeMemo:    fileMemo[*objfile.Image]{max: memoSize},
		ctrExeHit:  r.Counter("core.exe_cache_hit"),
		ctrExeMiss: r.Counter("core.exe_cache_miss"),
	}
}

// Instance is a per-process view of one linked-in module.
type Instance struct {
	Name   string
	Class  objfile.Class
	Path   string // instance path for public modules; "" for private
	Base   uint32
	Size   uint32 // mapped size, page-granular
	parent *Instance

	obj     *objfile.Object
	placed  *linker.Placed
	exports map[string]int // the template's export index
	sh      *shared        // public modules only

	// The template the instance was made from, and its content
	// fingerprint when this process located it: a line of the zygote
	// manifest (Manifest).
	tmpl   string
	tmplCV uint64

	searchPath []string
	deps       []objfile.ModuleRef
	depsLoaded []*Instance
	depsDone   bool

	pending []objfile.Reloc // private modules only (public: sh.pending)
	linked  bool
	lazy    bool // mapped without access permissions
}

// Symbols returns the instance's exported symbols at their placed
// absolute addresses: the symbolization source the guest profiler uses to
// turn sampled PCs inside this module into function names.
func (in *Instance) Symbols() []objfile.ImageSym {
	if in.placed == nil {
		return nil
	}
	return in.placed.Exports()
}

// Linked reports whether the instance has all references resolved.
func (in *Instance) Linked() bool {
	if in.sh != nil {
		return in.sh.linked.Load()
	}
	return in.linked
}

// Proc is the per-process dynamic-linker state: the kern.Runtime that
// Start installs as the process's Runtime.
type Proc struct {
	W     *World
	P     *kern.Process
	Image *objfile.Image

	table     *linker.Table // image's static symbols
	root      *Instance     // pseudo-instance: the program itself
	instances []*Instance
	imagePend []objfile.ImageReloc
	trampNext uint32
	plt       map[uint32]string // stub address -> function name
}

// Start runs ldl for a process that has just exec'd im: the work the
// special crt0 triggers before main. It installs the fault handler and
// returns the per-process linker state.
func (w *World) Start(p *kern.Process, im *objfile.Image) (*Proc, error) {
	startSpan := w.tracer().Begin("ldl", "start", p.PID, im.Name)
	defer startSpan.End(0)
	pr := &Proc{W: w, P: p, Image: im, table: linker.NewTable(), trampNext: im.TrampBase}
	defSpan := w.tracer().Begin("ldl", "sym_define", p.PID, im.Name)
	for _, s := range im.Symbols {
		if err := pr.table.Define(s.Name, s.Addr, s.Size); err != nil {
			defSpan.End(0)
			return nil, err
		}
	}
	defSpan.End(uint64(len(im.Symbols)))
	// Passes replace imagePend and never write into it, so it can start
	// as the image's own list.
	pr.imagePend = im.Relocs
	w.addImageRelocs(len(pr.imagePend))
	pr.root = &Instance{
		Name:       "(program)",
		searchPath: pr.runtimeDirs(),
	}
	p.Runtime = pr
	pr.installPLT()

	// Map static public modules, creating any that do not yet exist.
	for _, sp := range im.Dyn.StaticPublic {
		if _, err := pr.bringInPublic(sp.Name, objfile.StaticPublic, sp.Template, pr.root); err != nil {
			return nil, err
		}
	}
	// Locate, create and map the dynamic modules.
	for _, ref := range im.Dyn.DynModules {
		if _, err := pr.BringIn(ref, pr.root); err != nil {
			return nil, err
		}
	}
	// Resolve undefined references from the main load image, including
	// references to symbols whose location was not known at static link
	// time.
	if err := pr.resolveImageRelocs(); err != nil {
		return nil, err
	}
	return pr, nil
}

// Manifest lists the module templates this process was linked from, each
// with its content fingerprint when the process located it: the zygote
// manifest the kernel re-checks before cloning a template parked right
// after Start.
func (pr *Proc) Manifest() []kern.ZygoteDep {
	m := make([]kern.ZygoteDep, len(pr.instances))
	for i, in := range pr.instances {
		m[i] = kern.ZygoteDep{Path: in.tmpl, CV: in.tmplCV}
	}
	return m
}

// CreditClone charges the linker work a zygote clone inherited from its
// template — the modules Start mapped and the image relocations it
// applied; Start links no module — to the world stats, so they read
// identically in warm and cold worlds.
func (pr *Proc) CreditClone() {
	mapped := len(pr.instances)
	relocs := len(pr.Image.Relocs) - len(pr.imagePend)
	w := pr.W
	w.mu.Lock()
	w.Stats.ModulesMapped += mapped
	w.Stats.RelocsApplied += relocs
	w.mu.Unlock()
	w.ctrMapped.Add(uint64(mapped))
	w.ctrRelocs.Add(uint64(relocs))
}

// ProcOf returns the linker state Start attached to the process.
func ProcOf(p *kern.Process) (*Proc, bool) {
	pr, ok := p.Runtime.(*Proc)
	return pr, ok
}

// runtimeDirs is ldl's root search order: LD_LIBRARY_PATH now, then the
// directories in which lds searched for static modules.
func (pr *Proc) runtimeDirs() []string {
	var dirs []string
	if env := pr.P.Getenv("LD_LIBRARY_PATH"); env != "" {
		dirs = append(dirs, strings.Split(env, ":")...)
	}
	d := &pr.Image.Dyn
	if d.LinkDir != "" {
		dirs = append(dirs, d.LinkDir)
	}
	dirs = append(dirs, d.CmdPath...)
	dirs = append(dirs, d.EnvPath...)
	dirs = append(dirs, d.DefaultPath...)
	return dirs
}

// scopeDirs returns the search directories for a module reference made by
// `from`: from's own path first, then its ancestors' (scoped linking).
func (pr *Proc) scopeDirs(from *Instance) []string {
	var dirs []string
	for s := from; s != nil; s = s.parent {
		dirs = append(dirs, s.searchPath...)
	}
	return dirs
}

// BringIn locates, creates if necessary, and maps the module named by ref,
// scoped under parent. The module is NOT linked: if it has undefined
// references it is mapped without access permissions so the first
// reference faults ("brought in by ldl, created on first use").
func (pr *Proc) BringIn(ref objfile.ModuleRef, parent *Instance) (*Instance, error) {
	if parent == nil {
		parent = pr.root
	}
	dirs := pr.scopeDirs(parent)
	findSpan := pr.W.tracer().Begin("ldl", "find_module", pr.P.PID, ref.Name)
	tmplPath, ok := pr.W.LD.FindModule(ref.Name, dirs)
	findSpan.End(0)
	if !ok {
		return nil, fmt.Errorf("%w: %s (searched %v)", ErrModuleNotFound, ref.Name, dirs)
	}
	var inst *Instance
	var err error
	if ref.Class.Public() {
		inst, err = pr.bringInPublic(ref.Name, ref.Class, tmplPath, parent)
	} else {
		inst, err = pr.bringInPrivate(ref.Name, ref.Class, tmplPath, parent)
	}
	if err != nil {
		return nil, err
	}
	// The new module's exports may satisfy references retained in the main
	// image — "ldl will use symbols found in dynamically-linked modules to
	// resolve undefined references in the statically-linked portion of the
	// program, even when the location of those symbols was not known at
	// static link time."
	if len(pr.imagePend) > 0 && parent == pr.root {
		if err := pr.resolveImageRelocs(); err != nil {
			return nil, err
		}
	}
	return inst, nil
}

// bringInPublic maps (creating if necessary, under the template's file
// lock) the persistent public instance of the module.
func (pr *Proc) bringInPublic(name string, class objfile.Class, tmplPath string, parent *Instance) (*Instance, error) {
	w := pr.W
	sp := w.tracer().Begin("ldl", "bring_in_public", pr.P.PID, name)
	defer sp.End(0)
	instPath := lds.InstancePath(tmplPath)

	// Creation of shared segments is synchronized with file locking.
	if ok, err := w.K.FS.TryLock(tmplPath, pr.P.PID); err != nil {
		return nil, err
	} else if !ok {
		return nil, fmt.Errorf("ldl: template %s locked by another process", tmplPath)
	}
	defer w.K.FS.Unlock(tmplPath, pr.P.PID)

	w.mu.Lock()
	sh, known := w.public[instPath]
	w.mu.Unlock()
	var tmplCV uint64
	if known {
		// The template is not read again, but a zygote parked from this
		// launch must still be dropped when it changes.
		if w.stable {
			tmplCV, _ = w.K.FS.ContentVersion(tmplPath)
		}
	} else {
		tm, cv, err := pr.loadTemplate(tmplPath)
		if err != nil {
			return nil, err
		}
		tmplCV = cv
		obj := tm.obj
		createSpan := w.tracer().Begin("ldl", "create_instance", pr.P.PID, tmplPath)
		_, placed, created, err := w.LD.CreatePublicInstance(tmplPath, obj, pr.P.UID)
		createSpan.End(0)
		if err != nil {
			return nil, err
		}
		// The instance file already holds the internally-relocated bytes
		// (created now or by an earlier lds/ldl run). Recover the pending
		// external references from the template: external resolution is
		// deterministic, so this is safe across kernel restarts.
		var pending []objfile.Reloc
		for _, r := range obj.Relocs {
			if !obj.Symbols[r.Sym].Defined() {
				pending = append(pending, r)
			}
		}
		sh = &shared{path: instPath, placed: placed, exports: tm.exports, pending: pending}
		sh.linked.Store(len(pending) == 0)
		w.mu.Lock()
		if raced, ok := w.public[instPath]; ok {
			// Another process created the record between our lookup and
			// now; theirs is the fleet-wide copy.
			sh = raced
		} else {
			w.public[instPath] = sh
			if created {
				w.Stats.ModulesCreated++
				w.ctrCreated.Inc()
			}
		}
		w.mu.Unlock()
		if created {
			w.emit(obsv.Event{Name: "create_public", PID: pr.P.PID, Mod: instPath, Addr: placed.Base})
		}
	}

	// Already brought into this process?
	for _, in := range pr.instances {
		if in.Path == instPath {
			return in, nil
		}
	}

	prot := addrspace.ProtRWX
	lazy := false
	if !sh.linked.Load() {
		// "If any module contains undefined references ... ldl maps the
		// module without access permissions, so that the first reference
		// will cause a segmentation fault."
		prot = addrspace.ProtNone
		lazy = true
	}
	st, err := w.K.MapSharedFile(pr.P, instPath, sh.placed.Size(), prot)
	if err != nil {
		return nil, err
	}
	lazyVal := uint64(0)
	if lazy {
		lazyVal = 1
	}
	w.emit(obsv.Event{Name: "map_public", PID: pr.P.PID, Mod: instPath, Addr: st.Addr, Val: lazyVal})
	inst := &Instance{
		Name:       name,
		Class:      class,
		Path:       instPath,
		Base:       st.Addr,
		Size:       addrspace.PageCount(maxu32(st.Size, sh.placed.Size())) * 4096,
		parent:     parent,
		obj:        sh.placed.Obj,
		placed:     sh.placed,
		exports:    sh.exports,
		sh:         sh,
		tmpl:       tmplPath,
		tmplCV:     tmplCV,
		searchPath: sh.placed.Obj.SearchPath,
		deps:       sh.placed.Obj.Deps,
		lazy:       lazy,
	}
	pr.instances = append(pr.instances, inst)
	parent.depsLoaded = append(parent.depsLoaded, inst)
	w.mu.Lock()
	w.Stats.ModulesMapped++
	w.ctrMapped.Inc()
	w.mu.Unlock()
	return inst, nil
}

// bringInPrivate creates a new per-process instance of a private module.
func (pr *Proc) bringInPrivate(name string, class objfile.Class, tmplPath string, parent *Instance) (*Instance, error) {
	sp := pr.W.tracer().Begin("ldl", "bring_in_private", pr.P.PID, name)
	defer sp.End(0)
	tm, tmplCV, err := pr.loadTemplate(tmplPath)
	if err != nil {
		return nil, err
	}
	obj := tm.obj
	// Reserve private address space; each instance is distinct, even for
	// the same template under different parents (Figure 2 shows two
	// separate G.o instances).
	placeSpan := pr.W.tracer().Begin("linker", "place", pr.P.PID, tmplPath)
	placedProbe, err := linker.Place(obj, 0)
	if err != nil {
		placeSpan.End(0)
		return nil, err
	}
	base, err := pr.P.AllocPrivate(placedProbe.Size())
	if err != nil {
		placeSpan.End(0)
		return nil, err
	}
	placed, err := linker.Place(obj, base)
	placeSpan.End(0)
	if err != nil {
		return nil, err
	}
	// Initialise the instance from its template and apply internal
	// relocations through the (currently writable) mapping.
	writeSpan := pr.W.tracer().Begin("ldl", "write_segment", pr.P.PID, name)
	err = pr.P.WriteMem(base, placed.Image())
	writeSpan.End(uint64(placed.Size()))
	if err != nil {
		return nil, err
	}
	relocSpan := pr.W.tracer().Begin("ldl", "reloc_internal", pr.P.PID, name)
	pending, err := placed.RelocateInternal(pr.P.AS)
	relocSpan.End(0)
	if err != nil {
		return nil, err
	}
	size := addrspace.PageCount(placed.Size()) * 4096
	lazy := len(pending) > 0
	if lazy {
		if err := pr.P.AS.Protect(base, size, addrspace.ProtNone); err != nil {
			return nil, err
		}
	}
	lazyVal := uint64(0)
	if lazy {
		lazyVal = 1
	}
	pr.W.emit(obsv.Event{Name: "map_private", PID: pr.P.PID, Mod: name, Addr: base, Val: lazyVal})
	inst := &Instance{
		Name:       name,
		Class:      class,
		Base:       base,
		Size:       size,
		parent:     parent,
		obj:        obj,
		placed:     placed,
		exports:    tm.exports,
		tmpl:       tmplPath,
		tmplCV:     tmplCV,
		searchPath: obj.SearchPath,
		deps:       obj.Deps,
		pending:    pending,
		linked:     !lazy,
		lazy:       lazy,
	}
	pr.instances = append(pr.instances, inst)
	parent.depsLoaded = append(parent.depsLoaded, inst)
	pr.W.mu.Lock()
	pr.W.Stats.ModulesMapped++
	pr.W.ctrMapped.Inc()
	pr.W.mu.Unlock()
	return inst, nil
}

// template is a decoded module template and its export index: the
// symbol index of each name whose first symbol in obj.Symbols is global
// and defined. Scoped resolution looks names up here instead of scanning
// the symbol table.
type template struct {
	obj     *objfile.Object
	exports map[string]int
}

func decodeTemplate(b []byte) (*template, error) {
	obj, err := objfile.DecodeBytes(b)
	if err != nil {
		return nil, err
	}
	tm := &template{obj: obj, exports: map[string]int{}}
	// Walking backwards leaves each name at its first symbol, the one a
	// lookup by name finds.
	for i := len(obj.Symbols) - 1; i >= 0; i-- {
		if sym := &obj.Symbols[i]; sym.Global && sym.Defined() {
			tm.exports[sym.Name] = i
		} else {
			delete(tm.exports, sym.Name)
		}
	}
	return tm, nil
}

// loadTemplate decodes the module template at path. Under stable linking
// it also returns the file's content fingerprint, taken before the read,
// for the zygote manifest; otherwise no zygote is parked and it returns 0.
func (pr *Proc) loadTemplate(path string) (*template, uint64, error) {
	sp := pr.W.tracer().Begin("ldl", "load_template", pr.P.PID, path)
	defer sp.End(0)
	w := pr.W
	// Decoded templates are immutable (Place never mutates its input), so
	// under stable linking they are memoized by path + content fingerprint:
	// repeat launches skip the read+decode entirely.
	if w.stable {
		tm, cv, _, err := w.objMemo.load(w.K.FS, path, pr.P.UID, decodeTemplate)
		return tm, cv, err
	}
	data, err := w.K.FS.ReadFile(path, pr.P.UID)
	if err != nil {
		return nil, 0, err
	}
	tm, err := decodeTemplate(data)
	return tm, 0, err
}

func maxu32(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}

// ---- symbol resolution (scoped) -------------------------------------------

// loadDeps brings in the module's own dependency list (lazily mapped).
func (pr *Proc) loadDeps(in *Instance) error {
	if in.depsDone {
		return nil
	}
	in.depsDone = true
	for _, d := range in.deps {
		if _, err := pr.BringIn(d, in); err != nil {
			return err
		}
	}
	return nil
}

// resolveScoped resolves a symbol for a reference made by `from`: the
// exports of modules brought in at from's level first, then up the parent
// chain; at the root, the image's static symbols also count.
func (pr *Proc) resolveScoped(from *Instance, name string) (uint32, bool) {
	for s := from; s != nil; s = s.parent {
		for _, dep := range s.depsLoaded {
			if addr, ok := dep.export(name); ok {
				return addr, true
			}
		}
		if s == pr.root {
			if addr, ok := pr.table.Resolve(name); ok {
				return addr, true
			}
		}
	}
	return 0, false
}

// export returns the address of the instance's exported symbol name.
func (in *Instance) export(name string) (uint32, bool) {
	if i, ok := in.exports[name]; ok {
		return in.placed.SymAddr(i)
	}
	return 0, false
}

// LinkModule resolves a lazily-mapped module: it loads the module's own
// dependency list (mapping new modules, possibly inaccessibly), resolves
// the pending references scoped at the module, patches the segment, and
// enables access. Public modules are patched through the file so every
// process sees the linked segment.
func (pr *Proc) LinkModule(in *Instance) error {
	if in.Linked() {
		// Another process linked this public module; just enable access.
		return pr.enable(in)
	}
	if in.sh != nil {
		// Serialize fleet-wide: only one process links a public module;
		// the loser of the race sees linked==true after acquiring the
		// lock and just enables access in its own address space.
		in.sh.lmu.Lock()
		defer in.sh.lmu.Unlock()
		if in.Linked() {
			return pr.enable(in)
		}
	}
	sp := pr.W.tracer().Begin("ldl", "link_module", pr.P.PID, in.Name)
	defer sp.End(0)

	if err := pr.loadDeps(in); err != nil {
		return err
	}
	resolver := func(name string) (uint32, bool) { return pr.resolveScoped(in, name) }

	if in.sh != nil {
		// Public: patch the shared file; resolution must only bind to
		// public addresses, which mean the same thing in every process.
		guard := func(name string) (uint32, bool) {
			addr, ok := resolver(name)
			if ok && !layout.Public(addr) {
				return 0, false // leave pending; cannot soundly share
			}
			return addr, ok
		}
		pat := &filePatcher{fs: pr.W.K.FS, path: in.Path, base: in.Base, uid: pr.P.UID}
		left, err := in.placed.ApplyRelocs(in.sh.pending, guard, pat)
		if err != nil {
			return err
		}
		applied := len(in.sh.pending) - len(left)
		in.sh.pending = left
		in.sh.linked.Store(len(left) == 0)
		pr.addLinkStats(applied, 1)
		pr.W.emit(obsv.Event{Name: "lazy_link", PID: pr.P.PID, Mod: in.Path, Addr: in.Base, Val: uint64(applied)})
	} else {
		// Private: patch through this process's address space. Make the
		// pages writable for patching first.
		if err := pr.P.AS.Protect(in.Base, in.Size, addrspace.ProtRW); err != nil {
			return err
		}
		left, err := in.placed.ApplyRelocs(in.pending, resolver, pr.P.AS)
		if err != nil {
			return err
		}
		applied := len(in.pending) - len(left)
		in.pending = left
		in.linked = len(left) == 0
		pr.addLinkStats(applied, 1)
		pr.W.emit(obsv.Event{Name: "lazy_link", PID: pr.P.PID, Mod: in.Name, Addr: in.Base, Val: uint64(applied)})
	}
	// New modules may now satisfy references retained in the main image.
	if err := pr.resolveImageRelocs(); err != nil {
		return err
	}
	return pr.enable(in)
}

// LockLaunch serializes launches that share a content-hash key and
// returns the unlock. The zygote registry was built under the
// single-run-loop assumption: two identical launches racing down
// the cold path would each link cold and fight over registering the
// template. The gate makes the first one link and register; by the time a
// waiter proceeds, the zygote is parked and it clones warm. Launches with
// different keys never touch.
func (w *World) LockLaunch(key uint64) (unlock func()) {
	for {
		w.lgmu.Lock()
		ch, busy := w.inflight[key]
		if !busy {
			ch = make(chan struct{})
			w.inflight[key] = ch
			w.lgmu.Unlock()
			return func() {
				w.lgmu.Lock()
				delete(w.inflight, key)
				w.lgmu.Unlock()
				close(ch)
			}
		}
		w.lgmu.Unlock()
		<-ch
	}
}

// addLinkStats bumps the world link counters.
func (pr *Proc) addLinkStats(relocs, lazy int) {
	pr.W.mu.Lock()
	pr.W.Stats.RelocsApplied += relocs
	pr.W.Stats.LazyLinks += lazy
	pr.W.ctrRelocs.Add(uint64(relocs))
	if lazy > 0 {
		pr.W.ctrLazy.Add(uint64(lazy))
	}
	pr.W.mu.Unlock()
}

// enable restores access to a module's pages after linking.
func (pr *Proc) enable(in *Instance) error {
	in.lazy = false
	return pr.P.AS.Protect(in.Base, in.Size, addrspace.ProtRWX)
}

// filePatcher patches a public module through the shared file system, so
// the patched bytes land in the shared frames regardless of this process's
// page protections.
type filePatcher struct {
	fs   *shmfs.FS
	path string
	base uint32
	uid  int
}

// Patching goes through the file system's word-atomic accessors: a PLT
// slot or text word may be patched while a sibling CPU is executing
// through the very frame being written, and the host-atomic store means
// that CPU decodes the old word or the new word, never a torn mix.
func (fp *filePatcher) LoadWord(addr uint32) (uint32, error) {
	return fp.fs.LoadWordAt(fp.path, addr-fp.base, fp.uid)
}

func (fp *filePatcher) StoreWord(addr, val uint32) error {
	return fp.fs.StoreWordAt(fp.path, addr-fp.base, val, fp.uid)
}

// ---- image relocations -------------------------------------------------------

// resolveImageRelocs applies retained load-image relocations whose symbols
// are now resolvable (root scope). Others stay pending; a later LinkModule
// may satisfy them.
func (pr *Proc) resolveImageRelocs() error {
	sp := pr.W.tracer().Begin("ldl", "resolve_image", pr.P.PID, "")
	defer sp.End(uint64(len(pr.imagePend)))
	var left []objfile.ImageReloc
	applied := 0
	defer func() { pr.addLinkStats(applied, 0) }()
	var pg imagePage
	for _, r := range pr.imagePend {
		addr, ok := pr.resolveScoped(pr.root, r.Name)
		if !ok {
			left = append(left, r)
			continue
		}
		if err := pr.applyImageReloc(&pg, r, addr); err != nil {
			return err
		}
		applied++
	}
	// Shrink the pending aggregate by the number of relocations this pass
	// applied. (ImageRelocsLeft used to be overwritten with len(left),
	// clobbering other processes' pending counts.)
	pr.W.addImageRelocs(len(left) - len(pr.imagePend))
	pr.imagePend = left
	return nil
}

// imagePage is the frame behind the image page that a pass over retained
// relocations last patched. Consecutive relocations of an image mostly
// share a page, so a pass translates a page about once instead of twice
// per patched word.
type imagePage struct {
	base  uint32
	frame *mem.Frame
}

// word returns the frame and in-page offset of the image word at addr,
// failing as a LoadWord followed by a StoreWord there would.
func (pg *imagePage) word(as *addrspace.Space, addr uint32) (*mem.Frame, uint32, error) {
	if addr%4 != 0 {
		_, err := as.LoadWord(addr)
		return nil, 0, err
	}
	if base := addrspace.PageBase(addr); pg.frame == nil || base != pg.base {
		if _, flt := as.Translate(addr, addrspace.AccessRead); flt != nil {
			return nil, 0, flt
		}
		e, flt := as.Translate(addr, addrspace.AccessWrite)
		if flt != nil {
			return nil, 0, flt
		}
		pg.base, pg.frame = base, e.Frame
	}
	return pg.frame, addr & (mem.PageSize - 1), nil
}

// applyImageReloc patches one retained relocation in the running image
// through the process address space.
func (pr *Proc) applyImageReloc(pg *imagePage, r objfile.ImageReloc, symAddr uint32) error {
	f, off, err := pg.word(pr.P.AS, r.Addr)
	if err != nil {
		return err
	}
	target := symAddr + uint32(r.Addend)
	w := f.LoadWordBE(off)
	switch r.Type {
	case objfile.RelWord32:
		w = target
	case objfile.RelHi16:
		w = isa.PatchImm16(w, isa.Hi16(target))
	case objfile.RelLo16:
		w = isa.PatchImm16(w, isa.Lo16(target))
	case objfile.RelJump26:
		if !isa.JumpReach(r.Addr, target) {
			tramp, err := pr.imageTrampoline(target)
			if err != nil {
				return err
			}
			target = tramp
		}
		w = isa.PatchJump26(w, target)
	case objfile.RelBranch16:
		d, ok := isa.BranchOffset(r.Addr, target)
		if !ok {
			return fmt.Errorf("ldl: branch from 0x%08x to 0x%08x out of range", r.Addr, target)
		}
		w = isa.PatchImm16(w, d)
	default:
		return fmt.Errorf("ldl: unsupported retained relocation %v", r.Type)
	}
	f.StoreWordBE(off, w)
	return nil
}

// imageTrampoline allocates a fragment in the image's reserved trampoline
// area.
func (pr *Proc) imageTrampoline(target uint32) (uint32, error) {
	if pr.trampNext+isa.TrampolineSize > pr.Image.TrampBase+pr.Image.TrampSize {
		return 0, ErrNoTrampoline
	}
	addr := pr.trampNext
	for i, w := range isa.TrampolineWords(target, false) {
		if err := pr.P.AS.StoreWord(addr+uint32(i)*4, w); err != nil {
			return 0, err
		}
	}
	pr.trampNext += isa.TrampolineSize
	return addr, nil
}

// ---- the fault handler --------------------------------------------------------

// instanceAt finds the instance whose mapping covers addr.
func (pr *Proc) instanceAt(addr uint32) *Instance {
	for _, in := range pr.instances {
		if addr >= in.Base && addr < in.Base+in.Size {
			return in
		}
	}
	return nil
}

// HandleFault is the user-level SIGSEGV handler the Hemlock run-time
// library installs. It implements lazy linking and pointer-following, and
// returns kern.ErrUnhandled when it cannot resolve the fault, so the
// kernel passes it on to the program's own handler (kern.Process's
// UserHandler), if one exists.
func (pr *Proc) HandleFault(p *kern.Process, f *addrspace.Fault) error {
	// A fault inside a module set up for lazy linking triggers the
	// dynamic linker.
	if in := pr.instanceAt(f.Addr); in != nil && in.lazy {
		return pr.LinkModule(in)
	}
	// A fault in the shared portion of the address space: translate the
	// address into a path name and, access rights permitting, map the
	// named segment.
	if layout.Public(f.Addr) && f.Unmapped {
		path, _, err := pr.W.K.FS.AddrToPath(f.Addr)
		if err != nil {
			return kern.ErrUnhandled
		}
		if _, err := pr.W.K.MapSharedFile(p, path, 0, addrspace.ProtRWX); err != nil {
			return kern.ErrUnhandled
		}
		// Every page the file has is mapped now, so a fault that is still
		// unmapped lies in the file's slot but past its pages: mapping
		// again resolves nothing.
		if !p.AS.Mapped(f.Addr, 1) {
			return kern.ErrUnhandled
		}
		pr.W.mu.Lock()
		pr.W.Stats.PointerMaps++
		pr.W.ctrPtrMaps.Inc()
		pr.W.mu.Unlock()
		pr.W.emit(obsv.Event{Name: "pointer_map", PID: p.PID, Mod: path, Addr: f.Addr})
		return nil
	}
	return kern.ErrUnhandled
}

// ---- queries -------------------------------------------------------------------

// Resolve finds a symbol the way the running program would: image symbols
// and the exports of every module brought in, root-scoped.
func (pr *Proc) Resolve(name string) (uint32, bool) {
	if addr, ok := pr.resolveScoped(pr.root, name); ok {
		return addr, ok
	}
	// Fall back to any loaded instance's exports (diagnostics).
	for _, in := range pr.instances {
		if addr, ok := in.export(name); ok {
			return addr, true
		}
	}
	return 0, false
}

// Instances returns the modules brought into this process, in load order.
func (pr *Proc) Instances() []*Instance { return pr.instances }

// PendingImageRefs returns the names still unresolved in the main image.
func (pr *Proc) PendingImageRefs() []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range pr.imagePend {
		if !seen[r.Name] {
			seen[r.Name] = true
			out = append(out, r.Name)
		}
	}
	return out
}
