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
	path   string
	placed *linker.Placed

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

	// Stable linking (linkcache.go). CacheEnabled turns on the persistent
	// content-hash link cache under /var/ldl/cache; ZygoteEnabled lets
	// launches be satisfied by CoW-cloning a parked template (core checks
	// it — zygotes are keyed and validated by the same cache entries, so
	// ZygoteEnabled implies CacheEnabled). Both default off: a bare World
	// behaves exactly as it always has.
	CacheEnabled  bool
	ZygoteEnabled bool

	cmu       sync.Mutex
	keyMemo   map[*objfile.Image]uint64 // image content hash, by identity
	objMemo   map[string]objMemoEntry   // decoded templates, by path
	entryMemo map[string]*cacheEntry    // decoded cache entries, by key
	memoCV    map[string]uint64         // cache-file fingerprint at decode

	// Launch singleflight (see LockLaunch): in-flight launches by content
	// key, so concurrent identical launches from the serve daemon or an
	// SMP workload produce exactly one cold link.
	lgmu     sync.Mutex
	inflight map[string]chan struct{}

	ctrCHit, ctrCMiss, ctrCInval *obsv.Counter
	gCacheBytes                  *obsv.Gauge
}

type objMemoEntry struct {
	cv  uint64
	obj *objfile.Object
}

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
		ctrMapped:   r.Counter("ldl.modules_mapped"),
		ctrCreated:  r.Counter("ldl.modules_created"),
		ctrLazy:     r.Counter("ldl.lazy_links"),
		ctrRelocs:   r.Counter("ldl.relocs_applied"),
		ctrPtrMaps:  r.Counter("ldl.pointer_maps"),
		ctrPLT:      r.Counter("ldl.plt_resolves"),
		gImageLeft:  r.Gauge("ldl.image_relocs_left"),
		keyMemo:     map[*objfile.Image]uint64{},
		objMemo:     map[string]objMemoEntry{},
		entryMemo:   map[string]*cacheEntry{},
		memoCV:      map[string]uint64{},
		inflight:    map[string]chan struct{}{},
		ctrCHit:     r.Counter("ldl.linkcache_hit"),
		ctrCMiss:    r.Counter("ldl.linkcache_miss"),
		ctrCInval:   r.Counter("ldl.linkcache_invalidate"),
		gCacheBytes: r.Gauge("ldl.linkcache_bytes"),
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

	obj    *objfile.Object
	placed *linker.Placed
	sh     *shared // public modules only

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

// Proc is the per-process dynamic-linker state, stored in
// kern.Process.Runtime by Start.
type Proc struct {
	W     *World
	P     *kern.Process
	Image *objfile.Image

	table       *linker.Table // image's static symbols
	root        *Instance     // pseudo-instance: the program itself
	instances   []*Instance
	imagePend   []objfile.ImageReloc
	trampNext   uint32
	userHandler kern.FaultHandler
	plt         map[uint32]string // stub address -> function name

	// Stable-linking state (linkcache.go). ckey is the launch content-hash
	// key ("" when the cache is off). centry is the validated cache entry
	// this process replays from; crec is the entry it is recording into (a
	// process never does both). cev is the currently open recorded event;
	// suppressImage short-circuits resolveImageRelocs while the "start"
	// event replay subsumes it. statRelocs/statLazy mirror this process's
	// own contributions to the world Stats, for event delta capture.
	ckey          string
	centry        *cacheEntry
	crec          *cacheEntry
	cev           *openEvent
	cdeps         map[string]bool
	suppressImage bool
	statRelocs    int
	statLazy      int
}

// Start runs ldl for a process that has just exec'd im: the work the
// special crt0 triggers before main. It installs the fault handler and
// returns the per-process linker state.
func (w *World) Start(p *kern.Process, im *objfile.Image) (*Proc, error) {
	startSpan := w.tracer().Begin("ldl", "start", p.PID, im.Name)
	defer startSpan.End(0)
	pr := &Proc{W: w, P: p, Image: im, table: linker.NewTable(), trampNext: im.TrampBase}
	if w.CacheEnabled {
		pr.ckey = w.LaunchKey(im, p.UID, p.Env)
		probeSpan := w.tracer().Begin("link", "cache_probe", p.PID, im.Name)
		entry := w.probeCache(pr.ckey)
		probeSpan.End(0)
		if entry != nil {
			pr.centry = entry
		} else {
			pr.crec = newCacheEntry(pr.ckey)
			pr.cdeps = map[string]bool{}
		}
	}
	defSpan := w.tracer().Begin("ldl", "sym_define", p.PID, im.Name)
	for _, s := range im.Symbols {
		if err := pr.table.Define(s.Name, s.Addr, s.Size); err != nil {
			defSpan.End(0)
			return nil, err
		}
	}
	defSpan.End(uint64(len(im.Symbols)))
	pr.imagePend = append([]objfile.ImageReloc(nil), im.Relocs...)
	w.addImageRelocs(len(pr.imagePend))
	pr.root = &Instance{
		Name:       "(program)",
		searchPath: pr.runtimeDirs(),
	}
	p.Runtime = pr
	p.Handler = pr.HandleFault
	pr.installPLT()
	p.CloneRuntime = func(parent, child *kern.Process) {
		if ppr, ok := ProcOf(parent); ok {
			ppr.CloneFor(child)
		}
	}

	// On a validated cache hit, the recorded "start" event subsumes every
	// image-relocation pass below: modules are still located and mapped
	// (laziness and world bookkeeping must be real), but resolution becomes
	// one bulk patch application at the end.
	startEv := pr.lookupEvent(eventStart)
	if startEv != nil {
		pr.suppressImage = true
	}
	pr.beginEvent(eventStart, nil)

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
	if startEv != nil {
		pr.suppressImage = false
		ok, err := pr.replayStart(startEv)
		if err != nil {
			return nil, err
		}
		if !ok {
			// World state diverged from the recording; resolve cold.
			if err := pr.resolveImageRelocs(); err != nil {
				return nil, err
			}
		}
	} else {
		if err := pr.resolveImageRelocs(); err != nil {
			return nil, err
		}
		pr.endEvent(nil)
	}
	return pr, nil
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
	pr.noteDep(tmplPath)
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
	if !known {
		createSpan := w.tracer().Begin("ldl", "create_instance", pr.P.PID, tmplPath)
		_, addr, created, err := w.LD.CreatePublicInstance(tmplPath, pr.P.UID)
		createSpan.End(0)
		if err != nil {
			return nil, err
		}
		obj, err := pr.loadTemplate(tmplPath)
		if err != nil {
			return nil, err
		}
		placeSpan := w.tracer().Begin("linker", "place", pr.P.PID, tmplPath)
		placed, err := linker.Place(obj, addr)
		placeSpan.End(0)
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
		sh = &shared{path: instPath, placed: placed, pending: pending}
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
		sh:         sh,
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
	pr.noteDep(tmplPath)
	obj, err := pr.loadTemplate(tmplPath)
	if err != nil {
		return nil, err
	}
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

func (pr *Proc) loadTemplate(path string) (*objfile.Object, error) {
	sp := pr.W.tracer().Begin("ldl", "load_template", pr.P.PID, path)
	defer sp.End(0)
	w := pr.W
	// Decoded templates are immutable (Place never mutates its input), so
	// under stable linking they are memoized by path + content fingerprint:
	// repeat launches skip the read+decode entirely.
	var cv uint64
	haveCV := false
	if w.CacheEnabled {
		if v, err := w.K.FS.ContentVersion(path); err == nil {
			cv, haveCV = v, true
			w.cmu.Lock()
			if e, ok := w.objMemo[path]; ok && e.cv == cv {
				w.cmu.Unlock()
				return e.obj, nil
			}
			w.cmu.Unlock()
		}
	}
	data, err := w.K.FS.ReadFile(path, pr.P.UID)
	if err != nil {
		return nil, err
	}
	obj, err := objfile.DecodeBytes(data)
	if err != nil {
		return nil, err
	}
	if haveCV {
		w.cmu.Lock()
		w.objMemo[path] = objMemoEntry{cv: cv, obj: obj}
		w.cmu.Unlock()
	}
	return obj, nil
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
			if addr, ok := dep.placed.AddrOf(name); ok {
				if i := dep.obj.SymbolIndex(name); i >= 0 {
					sym := dep.obj.Symbols[i]
					if sym.Global && sym.Defined() {
						return addr, true
					}
				}
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

	// On a warm launch, a recorded link event turns the whole resolve-and-
	// patch loop below into one bulk application of pre-resolved words.
	evKey := linkEventKey(in)
	if ev := pr.lookupEvent(evKey); ev != nil {
		ok, err := pr.replayLink(in, ev)
		if err != nil {
			return err
		}
		if ok {
			return pr.enable(in)
		}
		// World state diverged from the recording; link cold (unrecorded).
	}

	pr.beginEvent(evKey, pr.pendingOf(in))
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
		var pat linker.Patcher = &filePatcher{fs: pr.W.K.FS, path: in.Path, base: in.Base, uid: pr.P.UID}
		pat = pr.recordingPatcher(pat, true)
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
		left, err := in.placed.ApplyRelocs(in.pending, resolver, pr.recordingPatcher(pr.P.AS, false))
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
	pr.endEvent(pr.pendingOf(in))
	return pr.enable(in)
}

// LockLaunch serializes launches that share a content-hash key and
// returns the unlock. The zygote registry and the link cache were built
// under the single-run-loop assumption: two identical launches racing down
// the cold path would each link cold and fight over registering the
// template. The gate makes the first one link and register; by the time a
// waiter proceeds, the zygote is parked and it clones warm. Launches with
// different keys never touch.
func (w *World) LockLaunch(key string) (unlock func()) {
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

// pendingOf returns the module's current pending-relocation list (shared
// state for public modules, per-process for private ones).
func (pr *Proc) pendingOf(in *Instance) []objfile.Reloc {
	if in.sh != nil {
		return in.sh.pending
	}
	return in.pending
}

// addLinkStats bumps the world link counters and this process's own
// mirrors (the mirrors feed cache-event delta capture).
func (pr *Proc) addLinkStats(relocs, lazy int) {
	pr.W.mu.Lock()
	pr.W.Stats.RelocsApplied += relocs
	pr.W.Stats.LazyLinks += lazy
	pr.W.ctrRelocs.Add(uint64(relocs))
	if lazy > 0 {
		pr.W.ctrLazy.Add(uint64(lazy))
	}
	pr.W.mu.Unlock()
	pr.statRelocs += relocs
	pr.statLazy += lazy
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
	if pr.suppressImage {
		// The launch is replaying a recorded "start" event, which subsumes
		// every image-relocation pass made while modules come in.
		return nil
	}
	sp := pr.W.tracer().Begin("ldl", "resolve_image", pr.P.PID, "")
	defer sp.End(uint64(len(pr.imagePend)))
	pat := pr.recordingPatcher(pr.P.AS, false)
	var left []objfile.ImageReloc
	for _, r := range pr.imagePend {
		addr, ok := pr.resolveScoped(pr.root, r.Name)
		if !ok {
			left = append(left, r)
			continue
		}
		if err := pr.applyImageReloc(pat, r, addr); err != nil {
			return err
		}
		pr.W.mu.Lock()
		pr.W.Stats.RelocsApplied++
		pr.W.ctrRelocs.Inc()
		pr.W.mu.Unlock()
		pr.statRelocs++
	}
	// Shrink the pending aggregate by the number of relocations this pass
	// applied. (ImageRelocsLeft used to be overwritten with len(left),
	// clobbering other processes' pending counts.)
	pr.W.addImageRelocs(len(left) - len(pr.imagePend))
	pr.imagePend = left
	return nil
}

// applyImageReloc patches one retained relocation in the running image
// through pat (the process address space, possibly wrapped for cache
// recording).
func (pr *Proc) applyImageReloc(pat linker.Patcher, r objfile.ImageReloc, symAddr uint32) error {
	target := symAddr + uint32(r.Addend)
	w, err := pat.LoadWord(r.Addr)
	if err != nil {
		return err
	}
	switch r.Type {
	case objfile.RelWord32:
		return pat.StoreWord(r.Addr, target)
	case objfile.RelHi16:
		return pat.StoreWord(r.Addr, isa.PatchImm16(w, isa.Hi16(target)))
	case objfile.RelLo16:
		return pat.StoreWord(r.Addr, isa.PatchImm16(w, isa.Lo16(target)))
	case objfile.RelJump26:
		if !isa.JumpReach(r.Addr, target) {
			tramp, err := pr.imageTrampoline(pat, target)
			if err != nil {
				return err
			}
			target = tramp
		}
		return pat.StoreWord(r.Addr, isa.PatchJump26(w, target))
	case objfile.RelBranch16:
		off, ok := isa.BranchOffset(r.Addr, target)
		if !ok {
			return fmt.Errorf("ldl: branch from 0x%08x to 0x%08x out of range", r.Addr, target)
		}
		return pat.StoreWord(r.Addr, isa.PatchImm16(w, off))
	}
	return fmt.Errorf("ldl: unsupported retained relocation %v", r.Type)
}

// imageTrampoline allocates a fragment in the image's reserved trampoline
// area.
func (pr *Proc) imageTrampoline(pat linker.Patcher, target uint32) (uint32, error) {
	if pr.trampNext+isa.TrampolineSize > pr.Image.TrampBase+pr.Image.TrampSize {
		return 0, ErrNoTrampoline
	}
	addr := pr.trampNext
	for i, w := range isa.TrampolineWords(target, false) {
		if err := pat.StoreWord(addr+uint32(i)*4, w); err != nil {
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
// chains to any program-provided handler (installed via SetUserHandler)
// when it cannot resolve the fault.
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
			return pr.chain(p, f)
		}
		if _, err := pr.W.K.MapSharedFile(p, path, 0, addrspace.ProtRWX); err != nil {
			return pr.chain(p, f)
		}
		pr.W.mu.Lock()
		pr.W.Stats.PointerMaps++
		pr.W.ctrPtrMaps.Inc()
		pr.W.mu.Unlock()
		pr.W.emit(obsv.Event{Name: "pointer_map", PID: p.PID, Mod: path, Addr: f.Addr})
		return nil
	}
	return pr.chain(p, f)
}

// chain invokes the program-provided SIGSEGV handler, if one exists: the
// compatibility path of the library's replacement signal() call.
func (pr *Proc) chain(p *kern.Process, f *addrspace.Fault) error {
	if pr.userHandler != nil {
		return pr.userHandler(p, f)
	}
	return kern.ErrUnhandled
}

// SetUserHandler is the library's new version of the standard signal call:
// the program's handler runs only when the dynamic linking system's
// handler is unable to resolve a fault.
func (pr *Proc) SetUserHandler(h kern.FaultHandler) { pr.userHandler = h }

// ---- queries -------------------------------------------------------------------

// Resolve finds a symbol the way the running program would: image symbols
// and the exports of every module brought in, root-scoped.
func (pr *Proc) Resolve(name string) (uint32, bool) {
	if addr, ok := pr.resolveScoped(pr.root, name); ok {
		return addr, ok
	}
	// Fall back to any loaded instance's exports (diagnostics).
	for _, in := range pr.instances {
		if addr, ok := in.placed.AddrOf(name); ok {
			if i := in.obj.SymbolIndex(name); i >= 0 && in.obj.Symbols[i].Global && in.obj.Symbols[i].Defined() {
				return addr, true
			}
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
