package shmfs

import (
	"fmt"
	"io"
	"sort"

	"hemlock/internal/mem"
	"hemlock/internal/wire"
)

// Disk-image serialisation. The CLI (cmd/hemlock) keeps the whole shared
// file system in a host file between invocations, so lds can create a
// public module in one command and a later run can map it, exactly as the
// persistent shared file system survives across processes in the paper.
//
// Format, in internal/wire primitives (big-endian integers, strings as
// u16 length + bytes):
//
//	magic "HSFS" | version u32 | inode count u32
//	per inode: ino u32 | type u8 | mode u16 | uid u32 | mtime u64
//	           file: size u32 | data bytes
//	           dir : entry count u32 | (name, ino u32)*
//	           sym : target string
//
// Save writes version 3. Load also reads version 1, whose records are
// the same, and version 2, which put each page's store-version counter
// (u64) before its bytes and which Load skips. The counters are not
// saved because they only build ContentVersion fingerprints, and every
// holder of a fingerprint (ldl's decoded-file memos, the kernel's zygote
// manifests) lives in memory and starts empty at boot. Loaded frames
// start at version 0; ensureFrames seeds new frames past every mtime the
// image carries, so a file re-created after the load still moves its
// fingerprint.

const (
	imageMagic   = "HSFS"
	imageVersion = 3
)

// Save serialises the file system to w, one inode at a time.
func (fs *FS) Save(w io.Writer) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	e := wire.NewEncoder(nil)
	flush := func() error {
		b, err := e.Bytes()
		if err != nil {
			return fmt.Errorf("shmfs: %w", err)
		}
		_, err = w.Write(b)
		e = wire.NewEncoder(b[:0])
		return err
	}
	e.Raw([]byte(imageMagic))
	e.U32(imageVersion)
	e.U32(uint32(fs.nAlloc))
	for _, nd := range fs.inodes {
		if nd == nil {
			continue
		}
		e.U32(uint32(nd.ino))
		e.U8(uint8(nd.typ))
		e.U16(uint16(nd.mode))
		e.U32(uint32(nd.uid))
		e.U64(nd.mtime)
		switch nd.typ {
		case TypeFile:
			e.U32(nd.size)
			for fi, remain := 0, nd.size; remain > 0; fi++ {
				n := min(remain, mem.PageSize)
				e.Raw(nd.frames[fi].Data[:n])
				remain -= n
			}
		case TypeDir:
			e.Count32(len(nd.entries))
			names := make([]string, 0, len(nd.entries))
			for name := range nd.entries {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				e.Str(name)
				e.U32(uint32(nd.entries[name]))
			}
		case TypeSymlink:
			e.Str(nd.target)
		}
		if err := flush(); err != nil {
			return err
		}
	}
	return flush()
}

// Load deserialises a file system image produced by Save, backing file
// contents with frames from phys. It reads the whole image first: the
// decoder bounds every allocation by the bytes actually present. The
// address lookup table is rebuilt by a boot scan, matching the paper's
// crash-recovery story.
func Load(r io.Reader, phys *mem.Physical) (*FS, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	d := wire.NewDecoder(data)
	if magic := d.Raw(len(imageMagic)); string(magic) != imageMagic {
		return nil, fmt.Errorf("shmfs: bad image magic %q", magic)
	}
	version := d.U32()
	if d.Err() == nil && (version < 1 || version > imageVersion) {
		return nil, fmt.Errorf("shmfs: unsupported image version %d", version)
	}
	count := d.Count32(21) // the smallest inode record: a symlink or empty file
	if count > NumInodes {
		return nil, fmt.Errorf("shmfs: image claims %d inodes (max %d)", count, NumInodes)
	}
	fs := &FS{phys: phys, Lookup: LookupLinear}
	fs.resetIndex()
	for i := 0; i < count && d.Err() == nil; i++ {
		ino := d.U32()
		nd := &inode{ino: int(ino), typ: FileType(d.U8()), mode: Mode(d.U16()), uid: int(d.U32()), mtime: d.U64()}
		if d.Err() != nil {
			break
		}
		if ino >= NumInodes || fs.inodes[ino] != nil {
			return nil, fmt.Errorf("shmfs: inode %d out of range or repeated", ino)
		}
		switch nd.typ {
		case TypeFile:
			if nd.size = d.U32(); nd.size > MaxFile {
				return nil, fmt.Errorf("shmfs: inode %d size %d exceeds limit", ino, nd.size)
			}
			// Each frame is allocated only once its bytes are in hand.
			for remain := nd.size; remain > 0; {
				n := min(remain, mem.PageSize)
				if version == 2 {
					d.U64() // the page's store-version counter
				}
				content := d.Raw(int(n))
				if content == nil {
					break
				}
				f, err := phys.Alloc()
				if err != nil {
					return nil, err
				}
				copy(f.Data[:], content)
				nd.frames = append(nd.frames, f)
				remain -= n
			}
		case TypeDir:
			n := d.Count32(6)
			nd.entries = make(map[string]int, n)
			for j := 0; j < n; j++ {
				name := d.Str()
				nd.entries[name] = int(d.U32())
			}
		case TypeSymlink:
			nd.target = d.Str()
		default:
			return nil, fmt.Errorf("shmfs: inode %d has unknown type %d", ino, nd.typ)
		}
		fs.inodes[ino] = nd
		fs.nAlloc++
		fs.clock = max(fs.clock, nd.mtime)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("shmfs: reading image: %w", err)
	}
	if fs.inodes[0] == nil || fs.inodes[0].typ != TypeDir {
		return nil, fmt.Errorf("shmfs: image has no root directory")
	}
	if err := fs.checkTree(); err != nil {
		return nil, err
	}
	fs.BootScan()
	return fs, nil
}

// checkTree rejects directory entries that do not form a tree under the
// root. shmfs has no hard links, so every entry must name a loaded inode,
// no inode may be named twice, and no entry may name the root. That also
// rules out cycles, which would send BootScan into endless recursion.
func (fs *FS) checkTree() error {
	var named [NumInodes]bool
	for _, dir := range fs.inodes {
		if dir == nil {
			continue
		}
		for name, ino := range dir.entries {
			if ino <= 0 || ino >= NumInodes || fs.inodes[ino] == nil || named[ino] {
				return fmt.Errorf("shmfs: directory inode %d entry %q names inode %d, which is missing, the root, or named twice", dir.ino, name, ino)
			}
			named[ino] = true
		}
	}
	return nil
}
