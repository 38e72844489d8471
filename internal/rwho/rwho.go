// Package rwho reproduces the paper's rwhod case study. The original rwhod
// "maintains a collection of local files, one per remote machine", rewriting
// the corresponding file every time it receives a status packet, while rwho
// and ruptime re-read and re-parse all of those files on every invocation.
// "Using the early prototype of our tools, we re-implemented rwhod to keep
// its database in shared memory ... The result was both simpler and faster.
// On our local network of 65 rwhod-equipped machines, the new version of
// rwho saves a little over a second each time it is called."
//
// Two implementations of the same database:
//
//   - FileDB: one ASCII file per host under a spool directory, rewritten
//     whole on update, read and parsed whole on query (the baseline);
//   - SharedDB: a fixed-slot table in a dynamic public Hemlock module,
//     updated in place through the mapped segment and scanned directly on
//     query (the Hemlock version).
package rwho

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"

	"hemlock/internal/baseline"
	"hemlock/internal/core"
	"hemlock/internal/lds"
	"hemlock/internal/objfile"
	"hemlock/internal/shmfs"
)

// Status is one machine's rwhod record.
type Status struct {
	Host     string
	RecvTime uint32
	BootTime uint32
	Load     [3]uint32 // load average x100
	NUsers   uint32
}

// Slot geometry of the shared table.
const (
	SlotSize  = 64
	hostBytes = 32
	offRecv   = 32
	offBoot   = 36
	offLoad   = 40
	offUsers  = 52
	offInUse  = 56
)

// ErrTableFull is returned when the shared table has no free slot.
var ErrTableFull = errors.New("rwho: shared status table full")

// ErrUnknownHost is returned on queries for absent hosts.
var ErrUnknownHost = errors.New("rwho: unknown host")

// ---- file-based baseline -------------------------------------------------------

// FileDB is the original design: one file per remote machine.
type FileDB struct {
	FS  *shmfs.FS
	Dir string
	UID int
}

// NewFileDB creates the spool directory.
func NewFileDB(fs *shmfs.FS, dir string, uid int) (*FileDB, error) {
	if err := fs.MkdirAll(dir, shmfs.DefaultDirMode, uid); err != nil {
		return nil, err
	}
	return &FileDB{FS: fs, Dir: dir, UID: uid}, nil
}

func (d *FileDB) path(host string) string { return d.Dir + "/whod." + host }

// Update rewrites the host's file: linearise the record and write it out,
// exactly what rwhod does on every received packet.
func (d *FileDB) Update(st Status) error {
	data := baseline.Encode([]baseline.Field{
		{Key: "host", Value: st.Host},
		{Key: "recv", Value: baseline.U32(st.RecvTime)},
		{Key: "boot", Value: baseline.U32(st.BootTime)},
		{Key: "load0", Value: baseline.U32(st.Load[0])},
		{Key: "load1", Value: baseline.U32(st.Load[1])},
		{Key: "load2", Value: baseline.U32(st.Load[2])},
		{Key: "nusers", Value: baseline.U32(st.NUsers)},
	})
	return d.FS.WriteFile(d.path(st.Host), data, shmfs.DefaultFileMode, d.UID)
}

// Query reads and parses every host file: what rwho does per invocation.
func (d *FileDB) Query() ([]Status, error) {
	ents, err := d.FS.ReadDir(d.Dir)
	if err != nil {
		return nil, err
	}
	var out []Status
	for _, e := range ents {
		if !strings.HasPrefix(e.Name, "whod.") {
			continue
		}
		data, err := d.FS.ReadFile(d.Dir+"/"+e.Name, d.UID)
		if err != nil {
			return nil, err
		}
		st, err := parseStatus(data)
		if err != nil {
			return nil, fmt.Errorf("rwho: %s: %w", e.Name, err)
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Host < out[j].Host })
	return out, nil
}

func parseStatus(data []byte) (Status, error) {
	fields, err := baseline.Decode(data)
	if err != nil {
		return Status{}, err
	}
	var st Status
	host, ok := baseline.Get(fields, "host")
	if !ok {
		return Status{}, baseline.ErrBadRecord
	}
	st.Host = host
	if st.RecvTime, err = baseline.GetUint(fields, "recv"); err != nil {
		return Status{}, err
	}
	if st.BootTime, err = baseline.GetUint(fields, "boot"); err != nil {
		return Status{}, err
	}
	for i := 0; i < 3; i++ {
		if st.Load[i], err = baseline.GetUint(fields, fmt.Sprintf("load%d", i)); err != nil {
			return Status{}, err
		}
	}
	if st.NUsers, err = baseline.GetUint(fields, "nusers"); err != nil {
		return Status{}, err
	}
	return st, nil
}

// ---- shared-memory version -------------------------------------------------------

// TemplateSource returns the assembly for the whod.o shared module: a
// slot-table sized for maxHosts plus its slot count, all in one dynamic
// public segment.
func TemplateSource(maxHosts int) string {
	return fmt.Sprintf(`
        .data
        .globl  whod_nslots
whod_nslots:
        .word   %d
        .globl  whod_table
whod_table:
        .space  %d
`, maxHosts, maxHosts*SlotSize)
}

// Install writes the whod.o template into /lib and links the rwho utility
// image (a trivial main plus whod.o as a dynamic public module). Every
// daemon and query process launches this image.
func Install(s *core.System, maxHosts int) (*objfile.Image, error) {
	if _, err := s.Asm("/lib/whod.o", TemplateSource(maxHosts)); err != nil {
		return nil, err
	}
	if _, err := s.Asm("/bin/rwho-main.o", `
        .text
        .globl  main
main:   li      $v0, 0
        jr      $ra
`); err != nil {
		return nil, err
	}
	res, err := s.Link(&lds.Options{
		Output: "rwho",
		Modules: []lds.Input{
			{Name: "rwho-main.o", Class: objfile.StaticPrivate},
			{Name: "whod.o", Class: objfile.DynamicPublic},
		},
		LinkDir:     "/bin",
		DefaultPath: []string{"/lib"},
	})
	if err != nil {
		return nil, err
	}
	return res.Image, nil
}

// RuptimeSource is a ruptime-style utility written entirely in R3K-lite
// assembly: compiled code scanning the shared status table directly — no
// file reads, no parsing, no set-up calls; whod_table is just an extern.
// It prints each live host name to the console and exits with the count.
const RuptimeSource = `
        .text
        .globl  main
        .extern whod_nslots
        .extern whod_table
main:
        addiu   $sp, $sp, -8
        sw      $ra, 0($sp)
        la      $t0, whod_nslots
        lw      $s0, 0($t0)          # slots remaining
        la      $s1, whod_table      # current slot
        li      $s2, 0               # live host count
loop:
        blez    $s0, done
        lw      $t1, 56($s1)         # in-use flag
        beqz    $t1, next
        addiu   $s2, $s2, 1
        # strlen of the NUL-padded host name (bounded at 32)
        move    $a1, $s1
        li      $a2, 0
        li      $t3, 32
len:
        lbu     $t2, 0($a1)
        beqz    $t2, emit
        addiu   $a1, $a1, 1
        addiu   $a2, $a2, 1
        bne     $a2, $t3, len
emit:
        li      $v0, 2               # write(1, slot, len)
        li      $a0, 1
        move    $a1, $s1
        syscall
        li      $v0, 2               # write(1, "\n", 1)
        li      $a0, 1
        la      $a1, nl
        li      $a2, 1
        syscall
next:
        addiu   $s1, $s1, 64         # SlotSize
        addiu   $s0, $s0, -1
        b       loop
done:
        move    $v0, $s2             # exit status: number of hosts
        lw      $ra, 0($sp)
        addiu   $sp, $sp, 8
        jr      $ra
        .data
nl:     .asciiz "\n"
`

// InstallUptime assembles and links the assembly ruptime utility against
// the whod.o module (which Install must have created already).
func InstallUptime(s *core.System) (*objfile.Image, error) {
	if _, err := s.Asm("/bin/ruptime-main.o", RuptimeSource); err != nil {
		return nil, err
	}
	res, err := s.Link(&lds.Options{
		Output: "ruptime",
		Modules: []lds.Input{
			{Name: "ruptime-main.o", Class: objfile.StaticPrivate},
			{Name: "whod.o", Class: objfile.DynamicPublic},
		},
		LinkDir:     "/bin",
		DefaultPath: []string{"/lib"},
	})
	if err != nil {
		return nil, err
	}
	return res.Image, nil
}

// SharedDB is the Hemlock rwhod database: the table lives in the shared
// segment; lookups are loads, updates are stores. The handle memoises each
// host's slot index (verified against the segment on use), as the real
// daemon would.
type SharedDB struct {
	pg    *core.Program
	table *core.Var
	slots uint32
	cache map[string]int
}

// Open resolves the shared table in a launched program.
func Open(pg *core.Program) (*SharedDB, error) {
	n, err := pg.Var("whod_nslots")
	if err != nil {
		return nil, err
	}
	slots, err := n.Load()
	if err != nil {
		return nil, err
	}
	table, err := pg.Var("whod_table")
	if err != nil {
		return nil, err
	}
	return &SharedDB{pg: pg, table: table, slots: slots, cache: map[string]int{}}, nil
}

func encodeSlot(st Status) []byte {
	buf := make([]byte, SlotSize)
	copy(buf[:hostBytes], st.Host)
	binary.BigEndian.PutUint32(buf[offRecv:], st.RecvTime)
	binary.BigEndian.PutUint32(buf[offBoot:], st.BootTime)
	for i, l := range st.Load {
		binary.BigEndian.PutUint32(buf[offLoad+4*i:], l)
	}
	binary.BigEndian.PutUint32(buf[offUsers:], st.NUsers)
	binary.BigEndian.PutUint32(buf[offInUse:], 1)
	return buf
}

func decodeSlot(buf []byte) Status {
	var st Status
	st.Host = strings.TrimRight(string(buf[:hostBytes]), "\x00")
	st.RecvTime = binary.BigEndian.Uint32(buf[offRecv:])
	st.BootTime = binary.BigEndian.Uint32(buf[offBoot:])
	for i := range st.Load {
		st.Load[i] = binary.BigEndian.Uint32(buf[offLoad+4*i:])
	}
	st.NUsers = binary.BigEndian.Uint32(buf[offUsers:])
	return st
}

// findSlot returns the slot index holding host, or the first free slot if
// absent (-1 if full and absent).
func (d *SharedDB) findSlot(host string) (int, bool, error) {
	// Fast path: the memoised slot, verified against the shared segment
	// (another process may have rewritten it).
	if i, ok := d.cache[host]; ok {
		name, err := d.table.ReadBytes(uint32(i)*SlotSize, hostBytes)
		if err != nil {
			return 0, false, err
		}
		inuse, err := d.table.LoadAt(uint32(i)*SlotSize + offInUse)
		if err != nil {
			return 0, false, err
		}
		if inuse != 0 && strings.TrimRight(string(name), "\x00") == host {
			return i, true, nil
		}
		delete(d.cache, host)
	}
	free := -1
	for i := uint32(0); i < d.slots; i++ {
		inuse, err := d.table.LoadAt(i*SlotSize + offInUse)
		if err != nil {
			return 0, false, err
		}
		if inuse == 0 {
			if free < 0 {
				free = int(i)
			}
			continue
		}
		name, err := d.table.ReadBytes(i*SlotSize, hostBytes)
		if err != nil {
			return 0, false, err
		}
		if strings.TrimRight(string(name), "\x00") == host {
			d.cache[host] = int(i)
			return int(i), true, nil
		}
	}
	return free, false, nil
}

// Update stores the record in place: no linearisation, no file rewrite.
func (d *SharedDB) Update(st Status) error {
	_, err := d.UpdateSlot(st)
	return err
}

// UpdateSlot stores the record in place and returns the slot index it
// landed in — what a replicating daemon needs to mark the dirty range.
func (d *SharedDB) UpdateSlot(st Status) (int, error) {
	i, _, err := d.findSlot(st.Host)
	if err != nil {
		return 0, err
	}
	if i < 0 {
		return 0, ErrTableFull
	}
	if err := d.table.WriteBytes(uint32(i)*SlotSize, encodeSlot(st)); err != nil {
		return 0, err
	}
	d.cache[st.Host] = i
	return i, nil
}

// TableAddr returns the virtual address of the shared slot table — the
// same on every machine, by the linker's public-module invariant.
func (d *SharedDB) TableAddr() uint32 { return d.table.Addr }

// Query scans the shared table directly.
func (d *SharedDB) Query() ([]Status, error) {
	var out []Status
	for i := uint32(0); i < d.slots; i++ {
		buf, err := d.table.ReadBytes(i*SlotSize, SlotSize)
		if err != nil {
			return nil, err
		}
		if binary.BigEndian.Uint32(buf[offInUse:]) == 0 {
			continue
		}
		out = append(out, decodeSlot(buf))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Host < out[j].Host })
	return out, nil
}

// Lookup returns one host's record (the common rwho query).
func (d *SharedDB) Lookup(host string) (Status, error) {
	i, found, err := d.findSlot(host)
	if err != nil {
		return Status{}, err
	}
	if !found {
		return Status{}, fmt.Errorf("%w: %s", ErrUnknownHost, host)
	}
	buf, err := d.table.ReadBytes(uint32(i)*SlotSize, SlotSize)
	if err != nil {
		return Status{}, err
	}
	return decodeSlot(buf), nil
}

// SyntheticStatus generates a deterministic status record for host i at
// tick t (the workload generator for the E-rwho experiment).
func SyntheticStatus(i int, t uint32) Status {
	return Status{
		Host:     fmt.Sprintf("machine%02d", i),
		RecvTime: t,
		BootTime: 1000 + uint32(i),
		Load:     [3]uint32{uint32(i*7+int(t))%400 + 1, uint32(i*13)%300 + 1, uint32(i*3)%200 + 1},
		NUsers:   uint32(i) % 12,
	}
}
