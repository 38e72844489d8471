// Package shmfs implements Hemlock's kernel-maintained shared file system:
// a dedicated 1 GB region of every address space (0x30000000-0x70000000)
// holding exactly 1024 inodes, each file limited to 1 MB, with a
// globally-consistent, kernel-maintained mapping between virtual addresses
// and path names.
//
// The design follows section 3 of the paper ("Address Space and File System
// Organization"):
//
//   - the file system has exactly 1024 inodes and files are capped at 1 MB,
//     so the 1 GB region divides into exactly one slot per inode;
//   - hard links (other than '.' and '..') are prohibited, so there is a
//     one-one mapping between inodes and path names;
//   - a linear lookup table maps addresses back to files; it is initialised
//     by scanning the entire file system at boot time and updated as files
//     are created and destroyed, which lets the mapping survive crashes
//     without on-disk format changes;
//   - all the normal file operations work; the only thing that sets the
//     file system apart is the association between file names and addresses.
//
// File contents are stored in reference-counted physical frames, so mapping
// a file into an address space (kern.MapSegment) aliases the very same
// bytes the read/write interface sees.
package shmfs

import (
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"

	"hemlock/internal/mem"
	"hemlock/internal/obsv"
)

// Geometry of the shared file system (section 3 of the paper).
const (
	Base          uint32 = 0x30000000 // first address of the shared region
	Limit         uint32 = 0x70000000 // first address past the shared region
	NumInodes            = 1024       // the file system has exactly 1024 inodes
	MaxFile       uint32 = 1 << 20    // each file is limited to 1 MB
	SlotSize      uint32 = MaxFile    // region divides into one slot per inode
	framesPerFile        = int(MaxFile / mem.PageSize)
)

// Errors returned by the file system.
var (
	ErrNotExist   = errors.New("shmfs: no such file or directory")
	ErrExist      = errors.New("shmfs: file exists")
	ErrIsDir      = errors.New("shmfs: is a directory")
	ErrNotDir     = errors.New("shmfs: not a directory")
	ErrNoSpace    = errors.New("shmfs: out of inodes")
	ErrFileTooBig = errors.New("shmfs: file exceeds 1 MB limit")
	ErrHardLink   = errors.New("shmfs: hard links are prohibited")
	ErrNotEmpty   = errors.New("shmfs: directory not empty")
	ErrPerm       = errors.New("shmfs: permission denied")
	ErrBadAddr    = errors.New("shmfs: address not in shared file system")
	ErrLocked     = errors.New("shmfs: file is locked")
	ErrLoop       = errors.New("shmfs: too many levels of symbolic links")
	ErrInval      = errors.New("shmfs: invalid argument")
)

// FileType distinguishes inode kinds.
type FileType uint8

// Inode kinds.
const (
	TypeFile FileType = iota
	TypeDir
	TypeSymlink
)

func (t FileType) String() string {
	switch t {
	case TypeFile:
		return "file"
	case TypeDir:
		return "dir"
	case TypeSymlink:
		return "symlink"
	}
	return "?"
}

// Mode bits: a simplified owner/other Unix permission model.
type Mode uint16

// Permission bits.
const (
	ModeOwnerRead  Mode = 0400
	ModeOwnerWrite Mode = 0200
	ModeOtherRead  Mode = 0004
	ModeOtherWrite Mode = 0002

	// DefaultFileMode is rw-r--r-- style default for new files.
	DefaultFileMode = ModeOwnerRead | ModeOwnerWrite | ModeOtherRead
	// DefaultDirMode allows everyone to list.
	DefaultDirMode = DefaultFileMode
)

// inode is the in-memory inode.
type inode struct {
	ino     int
	typ     FileType
	mode    Mode
	uid     int
	size    uint32
	frames  []*mem.Frame // lazily grown, TypeFile only
	entries map[string]int
	target  string // TypeSymlink only
	mtime   uint64

	lockOwner int // pid holding the advisory lock; 0 = unlocked
	lockDepth int
}

// Stat describes an inode, as returned by the stat kernel call. Addr is the
// globally-agreed virtual address of the file's slot: the piece of state the
// paper adds to stat's usual contents.
type Stat struct {
	Ino   int
	Type  FileType
	Mode  Mode
	UID   int
	Size  uint32
	Addr  uint32
	Mtime uint64
}

// tableEntry is one row of the kernel's linear address-to-file lookup table.
type tableEntry struct {
	base uint32
	ino  int
	path string
}

// FS is the shared file system. All methods are safe for concurrent use.
type FS struct {
	mu     sync.Mutex
	phys   *mem.Physical
	inodes [NumInodes]*inode
	nAlloc int
	clock  uint64

	// table is the linear lookup table from addresses to files. It is
	// deliberately a flat slice scanned linearly (the paper's choice for
	// crash-survivability); BootScan rebuilds it from the directory tree.
	table []tableEntry
	// slotIdx is the first ablation alternative: a direct slot-number
	// index into table (-1 = empty). Maintained alongside the linear
	// table.
	slotIdx [NumInodes]int32
	// tree is the second alternative: the B-tree the paper plans for
	// 64-bit machines, where slots are no longer dense. Also maintained
	// alongside the linear table.
	tree *AddrTree

	// Lookup selects the AddrToPath strategy; the paper's 32-bit
	// prototype uses LookupLinear.
	Lookup LookupMode

	// Observability wiring (Observe); nil-safe when unwired.
	tracer              *obsv.Tracer
	ctrCreate, ctrOpens *obsv.Counter
}

// Observe wires the file system into the observability layer: segment
// creations and frame-map opens flow to the counters, with trace events
// on tracer when enabled. kern.New/NewWithFS call this.
func (fs *FS) Observe(tracer *obsv.Tracer, creates, opens *obsv.Counter) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.tracer, fs.ctrCreate, fs.ctrOpens = tracer, creates, opens
}

// LookupMode selects how addresses translate to files.
type LookupMode int

// Lookup strategies for the E-fs ablation.
const (
	// LookupLinear scans the flat table: the paper's prototype choice,
	// "for the sake of simplicity".
	LookupLinear LookupMode = iota
	// LookupIndexed indexes directly by slot number, possible only while
	// inode number determines address (the dense 32-bit layout).
	LookupIndexed
	// LookupBTree walks the address-keyed B-tree, the paper's planned
	// 64-bit structure.
	LookupBTree
)

// New creates an empty shared file system (with a root directory at "/")
// backed by phys.
func New(phys *mem.Physical) (*FS, error) {
	fs := &FS{phys: phys, Lookup: LookupLinear}
	fs.resetIndex()
	root := &inode{ino: 0, typ: TypeDir, mode: DefaultDirMode, entries: map[string]int{}}
	fs.inodes[0] = root
	fs.nAlloc = 1
	return fs, nil
}

func (fs *FS) resetIndex() {
	for i := range fs.slotIdx {
		fs.slotIdx[i] = -1
	}
	fs.tree = NewAddrTree()
}

// AddrOf returns the fixed virtual address of inode ino's slot.
func AddrOf(ino int) uint32 { return Base + uint32(ino)*SlotSize }

// InodeAt returns the inode slot covering addr, or an error if addr is
// outside the shared region.
func InodeAt(addr uint32) (int, error) {
	if addr < Base || addr >= Limit {
		return 0, fmt.Errorf("%w: 0x%08x", ErrBadAddr, addr)
	}
	return int((addr - Base) / SlotSize), nil
}

// Contains reports whether addr lies inside the shared file system region.
func Contains(addr uint32) bool { return addr >= Base && addr < Limit }

func (fs *FS) tick() uint64 {
	fs.clock++
	return fs.clock
}

// ---- path resolution -------------------------------------------------

// Clean canonicalises p to an absolute slash path within the fs.
func Clean(p string) string {
	if p == "" {
		return "/"
	}
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return path.Clean(p)
}

const maxSymlinkDepth = 16

// walk resolves p to an inode, following symlinks up to depth. If followLast
// is false a trailing symlink is returned itself.
func (fs *FS) walk(p string, followLast bool, depth int) (*inode, error) {
	if depth > maxSymlinkDepth {
		return nil, ErrLoop
	}
	p = Clean(p)
	cur := fs.inodes[0]
	// Component by component without splitting p: resolving a path
	// allocates nothing unless it meets a symlink or fails.
	for rest := p[1:]; rest != ""; {
		name, tail, more := strings.Cut(rest, "/")
		if cur.typ != TypeDir {
			return nil, fmt.Errorf("%w: %s", ErrNotDir, name)
		}
		ino, ok := cur.entries[name]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNotExist, p)
		}
		next := fs.inodes[ino]
		if next == nil {
			return nil, fmt.Errorf("%w: %s (stale entry)", ErrNotExist, p)
		}
		if next.typ == TypeSymlink && (more || followLast) {
			target := next.target
			if !strings.HasPrefix(target, "/") {
				target = path.Join(p[:len(p)-len(rest)], target)
			}
			if more {
				target = target + "/" + tail
			}
			return fs.walk(target, followLast, depth+1)
		}
		cur, rest = next, tail
	}
	return cur, nil
}

// parentOf resolves the directory containing p and returns it with the leaf
// name.
func (fs *FS) parentOf(p string) (*inode, string, error) {
	p = Clean(p)
	if p == "/" {
		return nil, "", fmt.Errorf("%w: cannot operate on /", ErrInval)
	}
	dir, leaf := path.Split(p)
	parent, err := fs.walk(dir, true, 0)
	if err != nil {
		return nil, "", err
	}
	if parent.typ != TypeDir {
		return nil, "", ErrNotDir
	}
	return parent, leaf, nil
}

func (fs *FS) allocInode(typ FileType, mode Mode, uid int) (*inode, error) {
	for i := 0; i < NumInodes; i++ {
		if fs.inodes[i] == nil {
			nd := &inode{ino: i, typ: typ, mode: mode, uid: uid, mtime: fs.tick()}
			if typ == TypeDir {
				nd.entries = map[string]int{}
			}
			fs.inodes[i] = nd
			fs.nAlloc++
			return nd, nil
		}
	}
	return nil, ErrNoSpace
}

func (fs *FS) checkPerm(nd *inode, uid int, write bool) error {
	if uid == 0 { // root
		return nil
	}
	var need Mode
	if nd.uid == uid {
		need = ModeOwnerRead
		if write {
			need = ModeOwnerWrite
		}
	} else {
		need = ModeOtherRead
		if write {
			need = ModeOtherWrite
		}
	}
	if nd.mode&need == 0 {
		return fmt.Errorf("%w: inode %d mode %04o uid %d", ErrPerm, nd.ino, nd.mode, uid)
	}
	return nil
}

// ---- public API --------------------------------------------------------

// Create makes a new regular file at p owned by uid. It fails if p exists.
func (fs *FS) Create(p string, mode Mode, uid int) (Stat, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	nd, err := fs.createLocked(p, mode, uid)
	if err != nil {
		return Stat{}, err
	}
	return fs.statOf(nd), nil
}

func (fs *FS) createLocked(p string, mode Mode, uid int) (*inode, error) {
	parent, leaf, err := fs.parentOf(p)
	if err != nil {
		return nil, err
	}
	if _, ok := parent.entries[leaf]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExist, p)
	}
	nd, err := fs.allocInode(TypeFile, mode, uid)
	if err != nil {
		return nil, err
	}
	parent.entries[leaf] = nd.ino
	parent.mtime = fs.tick()
	fs.tableInsert(nd.ino, Clean(p))
	fs.ctrCreate.Inc()
	if fs.tracer.Enabled() {
		fs.tracer.Emit(obsv.Event{Subsys: "shmfs", Name: "create", Mod: Clean(p), Addr: AddrOf(nd.ino)})
	}
	return nd, nil
}

// CreateAt makes a new regular file at p bound to the specific inode ino,
// and therefore to the fixed virtual address AddrOf(ino). It fails if p
// exists or the inode is taken. This is how a replica machine materialises
// a segment homed elsewhere: the home dictates the slot, so the public
// module occupies the same virtual address on every machine (the netshm
// replication protocol depends on it).
func (fs *FS) CreateAt(p string, ino int, mode Mode, uid int) (Stat, error) {
	if ino < 0 || ino >= NumInodes {
		return Stat{}, fmt.Errorf("%w: inode %d", ErrInval, ino)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, leaf, err := fs.parentOf(p)
	if err != nil {
		return Stat{}, err
	}
	if _, ok := parent.entries[leaf]; ok {
		return Stat{}, fmt.Errorf("%w: %s", ErrExist, p)
	}
	if fs.inodes[ino] != nil {
		return Stat{}, fmt.Errorf("%w: inode %d already allocated", ErrExist, ino)
	}
	nd := &inode{ino: ino, typ: TypeFile, mode: mode, uid: uid, mtime: fs.tick()}
	fs.inodes[ino] = nd
	fs.nAlloc++
	parent.entries[leaf] = nd.ino
	parent.mtime = fs.tick()
	fs.tableInsert(nd.ino, Clean(p))
	fs.ctrCreate.Inc()
	if fs.tracer.Enabled() {
		fs.tracer.Emit(obsv.Event{Subsys: "shmfs", Name: "create", Mod: Clean(p), Addr: AddrOf(nd.ino)})
	}
	return fs.statOf(nd), nil
}

// ContentVersion returns a cheap fingerprint of a file's current contents:
// a mix of its inode, size, and every backing frame's store-version counter.
// Unlike mtime, it moves when the file is mutated *through a mapping* (a
// store into a mapped segment bumps the frame version but never touches the
// inode), which is exactly how a shared module's bytes change under Hemlock.
// It also moves when the file is unlinked and re-created, even at the same
// inode and size: fresh frames start their counters past every counter the
// old file's frames held (see ensureFrames). Two reads of one fingerprint
// therefore saw the same bytes, across Save and Load too. The kernel's
// zygote registry validates each template's manifest against this, and ldl
// keys its decoded templates and executables by it. It allocates nothing.
func (fs *FS) ContentVersion(p string) (uint64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	nd, err := fs.walk(p, true, 0)
	if err != nil {
		return 0, err
	}
	if nd.typ != TypeFile {
		return 0, fmt.Errorf("%w: %s is not a file", ErrInval, p)
	}
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(nd.ino))
	mix(uint64(nd.size))
	for _, f := range nd.frames {
		mix(f.Version())
	}
	return h, nil
}

// Mkdir creates a directory at p.
func (fs *FS) Mkdir(p string, mode Mode, uid int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, leaf, err := fs.parentOf(p)
	if err != nil {
		return err
	}
	if _, ok := parent.entries[leaf]; ok {
		return fmt.Errorf("%w: %s", ErrExist, p)
	}
	nd, err := fs.allocInode(TypeDir, mode, uid)
	if err != nil {
		return err
	}
	parent.entries[leaf] = nd.ino
	parent.mtime = fs.tick()
	return nil
}

// MkdirAll creates p and any missing parents.
func (fs *FS) MkdirAll(p string, mode Mode, uid int) error {
	p = Clean(p)
	if p == "/" {
		return nil
	}
	parts := strings.Split(p[1:], "/")
	cur := ""
	for _, part := range parts {
		cur = cur + "/" + part
		err := fs.Mkdir(cur, mode, uid)
		if err != nil && !errors.Is(err, ErrExist) {
			return err
		}
	}
	return nil
}

// Symlink creates a symbolic link at p pointing at target.
func (fs *FS) Symlink(target, p string, uid int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, leaf, err := fs.parentOf(p)
	if err != nil {
		return err
	}
	if _, ok := parent.entries[leaf]; ok {
		return fmt.Errorf("%w: %s", ErrExist, p)
	}
	nd, err := fs.allocInode(TypeSymlink, DefaultFileMode, uid)
	if err != nil {
		return err
	}
	nd.target = target
	parent.entries[leaf] = nd.ino
	parent.mtime = fs.tick()
	return nil
}

// Readlink returns the target of the symlink at p.
func (fs *FS) Readlink(p string) (string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	nd, err := fs.walk(p, false, 0)
	if err != nil {
		return "", err
	}
	if nd.typ != TypeSymlink {
		return "", fmt.Errorf("%w: not a symlink", ErrInval)
	}
	return nd.target, nil
}

// Link always fails: hard links other than '.' and '..' are prohibited so
// that the inode-to-path mapping stays one-one.
func (fs *FS) Link(oldp, newp string) error {
	return fmt.Errorf("%w: %s -> %s", ErrHardLink, newp, oldp)
}

// Unlink removes the file or symlink at p, destroying its inode and, for
// public modules, the segment behind it. Directories must use Rmdir.
func (fs *FS) Unlink(p string, uid int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, leaf, err := fs.parentOf(p)
	if err != nil {
		return err
	}
	ino, ok := parent.entries[leaf]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	nd := fs.inodes[ino]
	if nd.typ == TypeDir {
		return fmt.Errorf("%w: %s", ErrIsDir, p)
	}
	if err := fs.checkPerm(parent, uid, true); err != nil {
		return err
	}
	delete(parent.entries, leaf)
	parent.mtime = fs.tick()
	fs.destroyInode(nd)
	return nil
}

// Rmdir removes the empty directory at p.
func (fs *FS) Rmdir(p string, uid int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, leaf, err := fs.parentOf(p)
	if err != nil {
		return err
	}
	ino, ok := parent.entries[leaf]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	nd := fs.inodes[ino]
	if nd.typ != TypeDir {
		return fmt.Errorf("%w: %s", ErrNotDir, p)
	}
	if len(nd.entries) != 0 {
		return fmt.Errorf("%w: %s", ErrNotEmpty, p)
	}
	if err := fs.checkPerm(parent, uid, true); err != nil {
		return err
	}
	delete(parent.entries, leaf)
	parent.mtime = fs.tick()
	fs.destroyInode(nd)
	return nil
}

func (fs *FS) destroyInode(nd *inode) {
	for _, f := range nd.frames {
		f.Release()
	}
	nd.frames = nil
	fs.inodes[nd.ino] = nil
	fs.nAlloc--
	fs.tableRemove(nd.ino)
}

// StatPath stats the object at p, following symlinks.
func (fs *FS) StatPath(p string) (Stat, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	nd, err := fs.walk(p, true, 0)
	if err != nil {
		return Stat{}, err
	}
	return fs.statOf(nd), nil
}

// LstatPath stats without following a trailing symlink.
func (fs *FS) LstatPath(p string) (Stat, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	nd, err := fs.walk(p, false, 0)
	if err != nil {
		return Stat{}, err
	}
	return fs.statOf(nd), nil
}

func (fs *FS) statOf(nd *inode) Stat {
	return Stat{
		Ino:   nd.ino,
		Type:  nd.typ,
		Mode:  nd.mode,
		UID:   nd.uid,
		Size:  nd.size,
		Addr:  AddrOf(nd.ino),
		Mtime: nd.mtime,
	}
}

// Chmod changes the mode of the object at p.
func (fs *FS) Chmod(p string, mode Mode, uid int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	nd, err := fs.walk(p, true, 0)
	if err != nil {
		return err
	}
	if uid != 0 && uid != nd.uid {
		return fmt.Errorf("%w: chmod %s", ErrPerm, p)
	}
	nd.mode = mode
	nd.mtime = fs.tick()
	return nil
}

// DirEntry is one entry returned by ReadDir.
type DirEntry struct {
	Name string
	Ino  int
	Type FileType
}

// ReadDir lists the directory at p in name order.
func (fs *FS) ReadDir(p string) ([]DirEntry, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	nd, err := fs.walk(p, true, 0)
	if err != nil {
		return nil, err
	}
	if nd.typ != TypeDir {
		return nil, fmt.Errorf("%w: %s", ErrNotDir, p)
	}
	out := make([]DirEntry, 0, len(nd.entries))
	for name, ino := range nd.entries {
		child := fs.inodes[ino]
		if child == nil {
			continue
		}
		out = append(out, DirEntry{Name: name, Ino: ino, Type: child.typ})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// ensureFrames grows nd.frames to cover at least size bytes. Each new
// frame's store-version counter starts at the clock's next tick shifted
// into the high half, so a file unlinked and re-created at the same path,
// size and (reused) inode never repeats a fingerprint of the file it
// replaced: ContentVersion sees larger counters than any frame of the old
// file ever held.
func (fs *FS) ensureFrames(nd *inode, size uint32) error {
	if size > MaxFile {
		return fmt.Errorf("%w: %d bytes", ErrFileTooBig, size)
	}
	need := int((size + mem.PageSize - 1) / mem.PageSize)
	if len(nd.frames) >= need {
		return nil
	}
	seed := fs.tick() << 32
	for len(nd.frames) < need {
		f, err := fs.phys.Alloc()
		if err != nil {
			return err
		}
		f.RestoreVersion(seed)
		nd.frames = append(nd.frames, f)
	}
	return nil
}

// WriteAt writes buf into the file at p at offset off, growing the file as
// needed (up to the 1 MB limit). It is the traditional Unix write path; the
// bytes written are the very bytes a mapping of the file sees.
func (fs *FS) WriteAt(p string, off uint32, buf []byte, uid int) (int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	nd, err := fs.walk(p, true, 0)
	if err != nil {
		return 0, err
	}
	if nd.typ != TypeFile {
		return 0, ErrIsDir
	}
	if err := fs.checkPerm(nd, uid, true); err != nil {
		return 0, err
	}
	return fs.writeAtInode(nd, off, buf)
}

func (fs *FS) writeAtInode(nd *inode, off uint32, buf []byte) (int, error) {
	end := off + uint32(len(buf))
	if end < off || end > MaxFile {
		return 0, fmt.Errorf("%w: write to %d", ErrFileTooBig, end)
	}
	if err := fs.ensureFrames(nd, end); err != nil {
		return 0, err
	}
	done := 0
	for done < len(buf) {
		pos := off + uint32(done)
		fi := int(pos / mem.PageSize)
		fo := pos % mem.PageSize
		// Writes may land in frames mapped executable elsewhere (ldl's
		// filePatcher patches shared text this way); the version bump is
		// what invalidates any block decoded from them.
		n := len(buf) - done
		if room := int(mem.PageSize - fo); n > room {
			n = room
		}
		nd.frames[fi].NoteStoreRange(fo, uint32(n))
		copy(nd.frames[fi].Data[fo:], buf[done:done+n])
		done += n
	}
	if end > nd.size {
		nd.size = end
	}
	nd.mtime = fs.tick()
	return done, nil
}

// ReadAt reads up to len(buf) bytes from the file at p at offset off. It
// returns the number of bytes read; reads past EOF return 0.
func (fs *FS) ReadAt(p string, off uint32, buf []byte, uid int) (int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	nd, err := fs.walk(p, true, 0)
	if err != nil {
		return 0, err
	}
	if nd.typ != TypeFile {
		return 0, ErrIsDir
	}
	if err := fs.checkPerm(nd, uid, false); err != nil {
		return 0, err
	}
	return fs.readAtInode(nd, off, buf), nil
}

func (fs *FS) readAtInode(nd *inode, off uint32, buf []byte) int {
	if off >= nd.size {
		return 0
	}
	want := uint32(len(buf))
	if off+want > nd.size {
		want = nd.size - off
	}
	done := uint32(0)
	for done < want {
		pos := off + done
		fi := int(pos / mem.PageSize)
		fo := pos % mem.PageSize
		n := copy(buf[done:want], nd.frames[fi].Data[fo:])
		done += uint32(n)
	}
	return int(done)
}

// ReadFile returns the whole contents of the file at p, as one snapshot:
// a concurrent WriteFile lands entirely before or entirely after it.
func (fs *FS) ReadFile(p string, uid int) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	nd, err := fs.walk(p, true, 0)
	if err != nil {
		return nil, err
	}
	if nd.typ != TypeFile {
		return nil, ErrIsDir
	}
	if err := fs.checkPerm(nd, uid, false); err != nil {
		return nil, err
	}
	buf := make([]byte, nd.size)
	fs.readAtInode(nd, 0, buf)
	return buf, nil
}

// WriteFile creates (or truncates) the file at p with the given contents,
// in one step: no reader sees the file empty or half written.
func (fs *FS) WriteFile(p string, data []byte, mode Mode, uid int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	nd, err := fs.walk(p, true, 0)
	if errors.Is(err, ErrNotExist) {
		nd, err = fs.createLocked(p, mode, uid)
	}
	if err != nil {
		return err
	}
	if nd.typ != TypeFile {
		return ErrIsDir
	}
	if err := fs.checkPerm(nd, uid, true); err != nil {
		return err
	}
	if err := fs.truncateLocked(nd, 0); err != nil {
		return err
	}
	_, err = fs.writeAtInode(nd, 0, data)
	return err
}

// Truncate sets the file's size. Growing zero-fills; shrinking keeps frames
// allocated (they are zeroed past the new end so stale data cannot leak
// through a mapping).
func (fs *FS) Truncate(p string, size uint32, uid int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	nd, err := fs.walk(p, true, 0)
	if err != nil {
		return err
	}
	if nd.typ != TypeFile {
		return ErrIsDir
	}
	if err := fs.checkPerm(nd, uid, true); err != nil {
		return err
	}
	return fs.truncateLocked(nd, size)
}

func (fs *FS) truncateLocked(nd *inode, size uint32) error {
	if size > MaxFile {
		return fmt.Errorf("%w: truncate to %d", ErrFileTooBig, size)
	}
	if err := fs.ensureFrames(nd, size); err != nil {
		return err
	}
	if size < nd.size {
		for fi := int(size / mem.PageSize); fi <= int((nd.size-1)/mem.PageSize); fi++ {
			lo := uint32(0)
			if int(size/mem.PageSize) == fi {
				lo = size % mem.PageSize
			}
			hi := uint32(mem.PageSize)
			if int((nd.size-1)/mem.PageSize) == fi {
				hi = (nd.size-1)%mem.PageSize + 1
			}
			nd.frames[fi].NoteStoreRange(lo, hi-lo)
		}
		for pos := size; pos < nd.size; pos++ {
			fi := int(pos / mem.PageSize)
			fo := pos % mem.PageSize
			nd.frames[fi].Data[fo] = 0
		}
	}
	nd.size = size
	nd.mtime = fs.tick()
	return nil
}

// Frames returns the frames backing the file at p, growing the file to
// size bytes first so that all needed frames exist. The caller maps these
// frames into an address space; the frames remain owned by the file.
func (fs *FS) Frames(p string, size uint32, uid int, write bool) ([]*mem.Frame, Stat, error) {
	sp := fs.tracer.Begin("shmfs", "frames", 0, Clean(p))
	defer sp.End(0)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	nd, err := fs.walk(p, true, 0)
	if err != nil {
		return nil, Stat{}, err
	}
	if nd.typ != TypeFile {
		return nil, Stat{}, ErrIsDir
	}
	if err := fs.checkPerm(nd, uid, write); err != nil {
		return nil, Stat{}, err
	}
	if size < nd.size {
		size = nd.size
	}
	if err := fs.ensureFrames(nd, size); err != nil {
		return nil, Stat{}, err
	}
	if size > nd.size {
		nd.size = size
	}
	fs.ctrOpens.Inc()
	if fs.tracer.Enabled() {
		fs.tracer.Emit(obsv.Event{Subsys: "shmfs", Name: "open", Mod: Clean(p), Addr: AddrOf(nd.ino), Val: uint64(nd.size)})
	}
	return append([]*mem.Frame(nil), nd.frames...), fs.statOf(nd), nil
}

// ---- address <-> path kernel calls -------------------------------------

func (fs *FS) tableInsert(ino int, p string) {
	fs.table = append(fs.table, tableEntry{base: AddrOf(ino), ino: ino, path: p})
	fs.slotIdx[ino] = int32(len(fs.table) - 1)
	fs.tree.Insert(AddrOf(ino), ino, p)
}

func (fs *FS) tableRemove(ino int) {
	fs.tree.Delete(AddrOf(ino))
	for i := range fs.table {
		if fs.table[i].ino == ino {
			fs.table = append(fs.table[:i], fs.table[i+1:]...)
			fs.slotIdx[ino] = -1
			// Reindex the tail entries that shifted down.
			for j := i; j < len(fs.table); j++ {
				fs.slotIdx[fs.table[j].ino] = int32(j)
			}
			return
		}
	}
}

// PathToAddr returns the fixed virtual address of the file at p (the easy
// direction: stat already returns an inode number).
func (fs *FS) PathToAddr(p string) (uint32, error) {
	st, err := fs.StatPath(p)
	if err != nil {
		return 0, err
	}
	if st.Type != TypeFile {
		return 0, fmt.Errorf("%w: %s is a %s", ErrInval, p, st.Type)
	}
	return st.Addr, nil
}

// AddrToPath is the new kernel call: it translates an address inside the
// shared region into the path name of the file whose slot covers it, using
// the configured lookup strategy (the paper's prototype scans the linear
// table).
func (fs *FS) AddrToPath(addr uint32) (string, uint32, error) {
	ino, err := InodeAt(addr)
	if err != nil {
		return "", 0, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	switch fs.Lookup {
	case LookupIndexed:
		if idx := fs.slotIdx[ino]; idx >= 0 && int(idx) < len(fs.table) {
			e := &fs.table[idx]
			return e.path, addr - e.base, nil
		}
	case LookupBTree:
		if _, path, off, ok := fs.tree.LookupCovering(addr); ok {
			return path, off, nil
		}
	default: // LookupLinear
		for i := range fs.table {
			e := &fs.table[i]
			if addr >= e.base && addr < e.base+SlotSize {
				return e.path, addr - e.base, nil
			}
		}
	}
	return "", 0, fmt.Errorf("%w: no file at 0x%08x", ErrNotExist, addr)
}

// ClearTable discards the lookup table, simulating the state just after a
// crash/reboot before the boot-time scan has run.
func (fs *FS) ClearTable() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.table = nil
	fs.resetIndex()
}

// BootScan rebuilds the address lookup table by scanning the entire file
// system, as the kernel does at boot time.
func (fs *FS) BootScan() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.table = nil
	fs.resetIndex()
	fs.scanDir(fs.inodes[0], "/")
	return len(fs.table)
}

func (fs *FS) scanDir(dir *inode, prefix string) {
	names := make([]string, 0, len(dir.entries))
	for name := range dir.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		nd := fs.inodes[dir.entries[name]]
		if nd == nil {
			continue
		}
		p := path.Join(prefix, name)
		switch nd.typ {
		case TypeFile:
			fs.tableInsert(nd.ino, p)
		case TypeDir:
			fs.scanDir(nd, p)
		}
	}
}

// TableLen returns the number of live table entries (for fsck and tests).
func (fs *FS) TableLen() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.table)
}

// ---- advisory file locking ---------------------------------------------

// TryLock attempts to acquire the advisory exclusive lock on the file at p
// for owner pid. It is reentrant for the same pid. ldl uses this to
// synchronize the creation of shared segments.
func (fs *FS) TryLock(p string, pid int) (bool, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	nd, err := fs.walk(p, true, 0)
	if err != nil {
		return false, err
	}
	if nd.lockOwner == 0 || nd.lockOwner == pid {
		nd.lockOwner = pid
		nd.lockDepth++
		return true, nil
	}
	return false, nil
}

// Unlock releases one level of the advisory lock held by pid.
func (fs *FS) Unlock(p string, pid int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	nd, err := fs.walk(p, true, 0)
	if err != nil {
		return err
	}
	if nd.lockOwner != pid {
		return fmt.Errorf("%w: unlock by non-owner %d", ErrLocked, pid)
	}
	nd.lockDepth--
	if nd.lockDepth == 0 {
		nd.lockOwner = 0
	}
	return nil
}

// LockOwner reports the pid holding the lock on p (0 if unlocked).
func (fs *FS) LockOwner(p string) (int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	nd, err := fs.walk(p, true, 0)
	if err != nil {
		return 0, err
	}
	return nd.lockOwner, nil
}

// ---- inventory / perusal -----------------------------------------------

// InodesInUse returns the number of allocated inodes.
func (fs *FS) InodesInUse() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.nAlloc
}

// Usage summarises file-system occupancy: the raw material for the doctor's
// exhaustion checks and the daemon's /metrics gauges.
type Usage struct {
	InodesInUse int    // allocated inodes of any type
	InodesTotal int    // always NumInodes
	Files       int    // regular files
	Dirs        int    // directories (including /)
	Symlinks    int    // symbolic links
	Bytes       uint64 // sum of regular-file sizes
	LargestFile uint32 // size of the fullest slot
	LargestIno  int    // its inode (-1 when there are no files)
}

// InodeFill reports the allocated fraction of the inode table, in [0,1].
func (u Usage) InodeFill() float64 { return float64(u.InodesInUse) / float64(u.InodesTotal) }

// Usage scans the inode table and returns occupancy totals.
func (fs *FS) Usage() Usage {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	u := Usage{InodesTotal: NumInodes, LargestIno: -1}
	for _, nd := range fs.inodes {
		if nd == nil {
			continue
		}
		u.InodesInUse++
		switch nd.typ {
		case TypeFile:
			u.Files++
			u.Bytes += uint64(nd.size)
			if nd.size >= u.LargestFile && (nd.size > u.LargestFile || u.LargestIno < 0) {
				u.LargestFile = nd.size
				u.LargestIno = nd.ino
			}
		case TypeDir:
			u.Dirs++
		case TypeSymlink:
			u.Symlinks++
		}
	}
	return u
}

// WalkFiles calls fn for every regular file in the file system (the
// "ability to peruse all of the segments in existence" that the paper calls
// crucial for manual garbage collection). Walk order is deterministic.
func (fs *FS) WalkFiles(fn func(path string, st Stat) error) error {
	type item struct {
		p  string
		st Stat
	}
	fs.mu.Lock()
	var items []item
	var rec func(dir *inode, prefix string)
	rec = func(dir *inode, prefix string) {
		names := make([]string, 0, len(dir.entries))
		for name := range dir.entries {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			nd := fs.inodes[dir.entries[name]]
			if nd == nil {
				continue
			}
			p := path.Join(prefix, name)
			switch nd.typ {
			case TypeFile:
				items = append(items, item{p, fs.statOf(nd)})
			case TypeDir:
				rec(nd, p)
			}
		}
	}
	rec(fs.inodes[0], "/")
	fs.mu.Unlock()
	for _, it := range items {
		if err := fn(it.p, it.st); err != nil {
			return err
		}
	}
	return nil
}

// ---- word-atomic file access -------------------------------------------------

// StoreWordAt atomically stores the big-endian word at byte offset off of
// the file at p, growing the file if needed. The dynamic linker patches
// PLT slots and text words in shared segments through this while sibling
// guest CPUs may be executing out of the very frame being written: the
// host-atomic frame store (with its version bump first) guarantees a
// concurrently fetching CPU decodes the old word or the new word — never a
// torn mix — and re-validates on its next fetch.
func (fs *FS) StoreWordAt(p string, off, val uint32, uid int) error {
	if off%4 != 0 {
		return fmt.Errorf("shmfs: unaligned word store at %d", off)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	nd, err := fs.walk(p, true, 0)
	if err != nil {
		return err
	}
	if nd.typ != TypeFile {
		return ErrIsDir
	}
	if err := fs.checkPerm(nd, uid, true); err != nil {
		return err
	}
	if err := fs.ensureFrames(nd, off+4); err != nil {
		return err
	}
	nd.frames[off/mem.PageSize].StoreWordBE(off%mem.PageSize, val)
	if off+4 > nd.size {
		nd.size = off + 4
	}
	nd.mtime = fs.tick()
	return nil
}

// LoadWordAt atomically loads the big-endian word at byte offset off of
// the file at p. Reads past EOF return 0, like ReadAt.
func (fs *FS) LoadWordAt(p string, off uint32, uid int) (uint32, error) {
	if off%4 != 0 {
		return 0, fmt.Errorf("shmfs: unaligned word load at %d", off)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	nd, err := fs.walk(p, true, 0)
	if err != nil {
		return 0, err
	}
	if nd.typ != TypeFile {
		return 0, ErrIsDir
	}
	if err := fs.checkPerm(nd, uid, false); err != nil {
		return 0, err
	}
	if off+4 > nd.size {
		return 0, nil
	}
	return nd.frames[off/mem.PageSize].LoadWordBE(off % mem.PageSize), nil
}
