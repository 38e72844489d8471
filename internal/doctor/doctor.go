// Package doctor runs self-checks over a Hemlock world or fleet and
// reports typed findings. It is the operational counterpart of fsck: where
// fsck validates the file-system structures, doctor looks for the ways a
// long-running multi-tenant image wears out — inode slots running dry,
// segment slots filling toward the 1 MB ceiling, in-segment heaps
// exhausting or corrupting, executables shipping unresolved references or
// conflicting public address windows, and (fleet-wide) replicas stuck
// stale or holding divergent bytes after the protocol quiesces.
//
// Every problem is a Finding with a severity, so callers (the doctor CLI
// subcommand, CI, tests) can decide what is fatal: Critical findings fail
// the `hemlock doctor` exit status, Warn findings are advisory.
package doctor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"

	"hemlock/internal/core"
	"hemlock/internal/lds"
	"hemlock/internal/netshm"
	"hemlock/internal/objfile"
	"hemlock/internal/shalloc"
	"hemlock/internal/shmfs"
)

// Severity ranks a finding.
type Severity uint8

// Severities, in ascending order.
const (
	Info Severity = iota
	Warn
	Critical
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "INFO"
	case Warn:
		return "WARN"
	case Critical:
		return "CRIT"
	}
	return fmt.Sprintf("severity(%d)", uint8(s))
}

// Finding is one diagnosed condition.
type Finding struct {
	Check    string   `json:"check"`    // which self-check fired
	Severity Severity `json:"severity"` // how bad it is
	Subject  string   `json:"subject"`  // path, machine, or machine:path
	Detail   string   `json:"detail"`   // human-readable specifics
}

func (f Finding) String() string {
	return fmt.Sprintf("%s [%s] %s: %s", f.Severity, f.Check, f.Subject, f.Detail)
}

// Worst returns the highest severity present (Info when empty).
func Worst(fs []Finding) Severity {
	w := Info
	for _, f := range fs {
		if f.Severity > w {
			w = f.Severity
		}
	}
	return w
}

// Render formats findings one per line, stably sorted by severity
// (descending), then check, then subject.
func Render(fs []Finding) string {
	sorted := append([]Finding(nil), fs...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Severity != sorted[j].Severity {
			return sorted[i].Severity > sorted[j].Severity
		}
		if sorted[i].Check != sorted[j].Check {
			return sorted[i].Check < sorted[j].Check
		}
		return sorted[i].Subject < sorted[j].Subject
	})
	var b strings.Builder
	for _, f := range sorted {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Options are the check thresholds. The zero value selects the defaults.
type Options struct {
	InodeWarn float64 // inode-table fill that warns (default 0.80)
	InodeCrit float64 // inode-table fill that is critical (default 0.95)
	SlotWarn  float64 // file-size/slot-size fill that warns (default 0.80)
	HeapWarn  float64 // shalloc used/size fill that warns (default 0.80)
}

func (o Options) withDefaults() Options {
	if o.InodeWarn == 0 {
		o.InodeWarn = 0.80
	}
	if o.InodeCrit == 0 {
		o.InodeCrit = 0.95
	}
	if o.SlotWarn == 0 {
		o.SlotWarn = 0.80
	}
	if o.HeapWarn == 0 {
		o.HeapWarn = 0.80
	}
	return o
}

// CheckSystem runs every single-machine self-check over sys.
func CheckSystem(sys *core.System, opt Options) []Finding {
	opt = opt.withDefaults()
	var out []Finding
	out = append(out, checkInodes(sys.FS, opt)...)
	out = append(out, checkFiles(sys.FS, opt)...)
	return out
}

// checkInodes watches the fixed 1024-entry inode table run dry: past the
// warn threshold new segments are living on borrowed time, past critical
// the next burst of segment creation fails with ENOSPC.
func checkInodes(fs *shmfs.FS, opt Options) []Finding {
	u := fs.Usage()
	fill := u.InodeFill()
	detail := fmt.Sprintf("%d of %d inodes allocated (%.0f%%)", u.InodesInUse, u.InodesTotal, fill*100)
	switch {
	case fill >= opt.InodeCrit:
		return []Finding{{Check: "inode-slots", Severity: Critical, Subject: "/", Detail: detail}}
	case fill >= opt.InodeWarn:
		return []Finding{{Check: "inode-slots", Severity: Warn, Subject: "/", Detail: detail}}
	}
	return nil
}

// checkFiles walks every regular file once, running the per-file checks:
// slot fill, in-segment heap health, and executable-image hygiene.
func checkFiles(fs *shmfs.FS, opt Options) []Finding {
	var out []Finding
	// publicAt records which path claims each public base address, across
	// every HEMX image on the file system; two images binding different
	// paths to one window cannot coexist in the same world.
	publicAt := map[uint32]string{}
	fs.WalkFiles(func(p string, st shmfs.Stat) error {
		fill := float64(st.Size) / float64(shmfs.MaxFile)
		switch {
		case st.Size >= shmfs.MaxFile:
			out = append(out, Finding{Check: "slot-fill", Severity: Critical, Subject: p,
				Detail: fmt.Sprintf("slot exhausted: %d bytes fills the %d-byte slot; the segment cannot grow", st.Size, shmfs.MaxFile)})
		case fill >= opt.SlotWarn:
			out = append(out, Finding{Check: "slot-fill", Severity: Warn, Subject: p,
				Detail: fmt.Sprintf("%d of %d slot bytes used (%.0f%%)", st.Size, shmfs.MaxFile, fill*100)})
		}
		var head [4]byte // a short read leaves zeros, which match no magic
		_, _ = fs.ReadAt(p, 0, head[:], 0)
		switch string(head[:]) {
		case "SHAL":
			out = append(out, checkHeap(fs, p, st, opt)...)
		case "HEMX":
			out = append(out, checkImage(fs, p, st, publicAt)...)
			return nil // an executable linked next to its own .o is no instance
		}
		out = append(out, checkInstance(fs, p, st)...)
		return nil
	})
	return out
}

// checkInstance applies lds.CheckInstance to a public module instance: a
// file named like a template (X.o) with the ".o" dropped. An instance whose
// size is not what its template lays out to was written under another
// layout, and the next cold link of it fails.
func checkInstance(fs *shmfs.FS, p string, st shmfs.Stat) []Finding {
	tmpl := p + ".o"
	b, err := fs.ReadFile(tmpl, 0)
	if err != nil {
		return nil
	}
	obj, err := objfile.DecodeBytes(b)
	if err != nil {
		return nil
	}
	if _, err := lds.CheckInstance(p, st, tmpl, obj); err != nil {
		return []Finding{{Check: "instance-layout", Severity: Critical, Subject: p,
			Detail: fmt.Sprintf("%v; remove it, then re-link the images that link it static-public before they run again (they keep its old offsets)", err)}}
	}
	return nil
}

// fsMem adapts one shared-fs file to shalloc's Mem so the doctor can walk
// a segment heap without mapping it into any address space. It is
// read-only: the doctor diagnoses, it does not operate.
type fsMem struct {
	fs   *shmfs.FS
	path string
	base uint32
}

func (m fsMem) LoadWord(addr uint32) (uint32, error) {
	var b [4]byte
	n, err := m.fs.ReadAt(m.path, addr-m.base, b[:], 0)
	if err != nil {
		return 0, err
	}
	if n < 4 {
		return 0, fmt.Errorf("doctor: word at 0x%08x is past EOF of %s", addr, m.path)
	}
	return binary.BigEndian.Uint32(b[:]), nil
}

func (m fsMem) StoreWord(addr, val uint32) error {
	return fmt.Errorf("doctor: refusing to write 0x%08x (read-only access to %s)", addr, m.path)
}

// checkHeap validates a segment heap: metadata invariants (critical when
// violated) and space exhaustion (warn past the threshold).
func checkHeap(fs *shmfs.FS, p string, st shmfs.Stat, opt Options) []Finding {
	h, err := shalloc.Attach(fsMem{fs: fs, path: p, base: st.Addr}, st.Addr)
	if err != nil {
		return []Finding{{Check: "shalloc", Severity: Critical, Subject: p,
			Detail: fmt.Sprintf("heap attach failed: %v", err)}}
	}
	var out []Finding
	if err := h.Check(); err != nil {
		out = append(out, Finding{Check: "shalloc", Severity: Critical, Subject: p,
			Detail: fmt.Sprintf("heap invariants violated: %v", err)})
	}
	hs, err := h.Stats()
	if err != nil {
		if len(out) == 0 { // a corrupt free list usually breaks both walks
			out = append(out, Finding{Check: "shalloc", Severity: Critical, Subject: p,
				Detail: fmt.Sprintf("heap stats failed: %v", err)})
		}
		return out
	}
	if hs.SegmentSize > 0 {
		fill := float64(hs.UsedBytes) / float64(hs.SegmentSize)
		if fill >= opt.HeapWarn {
			out = append(out, Finding{Check: "shalloc", Severity: Warn, Subject: p,
				Detail: fmt.Sprintf("heap %d of %d bytes allocated (%.0f%%)", hs.UsedBytes, hs.SegmentSize, fill*100)})
		}
	}
	return out
}

// checkImage inspects one HEMX executable: leftover unresolved
// relocations (the program will fault at run time on symbols nobody
// provides) and static-public address windows that disagree with the
// file system or with other images.
func checkImage(fs *shmfs.FS, p string, st shmfs.Stat, publicAt map[uint32]string) []Finding {
	b, err := fs.ReadFile(p, 0)
	if err != nil {
		return nil
	}
	im, err := objfile.DecodeImageBytes(b)
	if err != nil {
		return []Finding{{Check: "image", Severity: Warn, Subject: p,
			Detail: fmt.Sprintf("undecodable HEMX image: %v", err)}}
	}
	var out []Finding
	// An image with a dynamic sharing class legitimately retains
	// relocations for ldl to resolve at run time; the defect is a retained
	// reference no module along the image's own search path can provide.
	provided := map[string]bool{}
	for _, s := range im.Symbols {
		provided[s.Name] = true
	}
	lk := lds.New(fs)
	dirs := lds.SearchDirs(&lds.Options{LinkDir: im.Dyn.LinkDir, CmdPath: im.Dyn.CmdPath,
		EnvPath: im.Dyn.EnvPath, DefaultPath: im.Dyn.DefaultPath})
	addExports := func(tmplPath string) {
		b, err := fs.ReadFile(tmplPath, 0)
		if err != nil {
			return
		}
		obj, err := objfile.DecodeBytes(b)
		if err != nil {
			return
		}
		for _, name := range obj.Exports() {
			provided[name] = true
		}
	}
	for _, m := range im.Dyn.DynModules {
		tmpl, ok := lk.FindModule(m.Name, dirs)
		if !ok {
			out = append(out, Finding{Check: "relocs", Severity: Critical, Subject: p,
				Detail: fmt.Sprintf("dynamic module %s not found along the image's search path %v", m.Name, dirs)})
			continue
		}
		addExports(tmpl)
	}
	for _, ref := range im.Dyn.StaticPublic {
		addExports(ref.Template)
	}
	var unresolved []string
	seen := map[string]bool{}
	for _, name := range im.UndefinedRelocs() {
		if !provided[name] && !seen[name] {
			unresolved, seen[name] = append(unresolved, name), true
		}
	}
	// Jump-table stubs defer their targets to first call; a stub nobody
	// can ever satisfy is the same defect on a slower fuse.
	for _, st := range im.PLT {
		if !provided[st.Name] && !seen[st.Name] {
			unresolved, seen[st.Name] = append(unresolved, st.Name), true
		}
	}
	sort.Strings(unresolved)
	if len(unresolved) > 0 {
		out = append(out, Finding{Check: "relocs", Severity: Warn, Subject: p,
			Detail: fmt.Sprintf("%d reference(s) no reachable module provides: %s", len(unresolved), strings.Join(unresolved, ", "))})
	}
	for _, ref := range im.Dyn.StaticPublic {
		addr, err := fs.PathToAddr(ref.Path)
		switch {
		case errors.Is(err, shmfs.ErrNotExist):
			out = append(out, Finding{Check: "addr-window", Severity: Warn, Subject: p,
				Detail: fmt.Sprintf("static public module %s expects %s, which no longer exists (recreated from %s on next launch)", ref.Name, ref.Path, ref.Template)})
		case err == nil && addr != ref.Addr:
			out = append(out, Finding{Check: "addr-window", Severity: Critical, Subject: p,
				Detail: fmt.Sprintf("static public module %s linked at 0x%08x but %s now sits at 0x%08x; every pointer into it is wrong", ref.Name, ref.Addr, ref.Path, addr)})
		}
		if prev, ok := publicAt[ref.Addr]; ok && prev != ref.Path {
			out = append(out, Finding{Check: "addr-window", Severity: Critical, Subject: p,
				Detail: fmt.Sprintf("address window 0x%08x claimed by both %s and %s; the images cannot share a world", ref.Addr, prev, ref.Path)})
		} else {
			publicAt[ref.Addr] = ref.Path
		}
	}
	return out
}

// CheckFleet runs the replication self-checks over a quiesced fleet:
// replicas that know they lag their home; replicas whose bytes diverge
// from the home's even though the generations agree; segments no machine
// claims the home role for (orphaned by a lost migration handshake);
// segments more than one machine claims; replicas serving reads past
// their lease against content that drifted; and transactional
// version-clock divergence at an agreed (epoch, generation).
func CheckFleet(fl *netshm.Fleet, opt Options) []Finding {
	var out []Finding
	type holder struct {
		machine    string
		digest     uint64
		isHome     bool
		migrating  bool
		epoch      uint64
		gen        uint64
		tv         uint64
		leaseUntil uint64
	}
	now := fl.Now()
	byPath := map[string][]holder{}
	for _, n := range fl.Nodes() {
		paths := n.Segments()
		sort.Strings(paths)
		for _, p := range paths {
			si, err := n.Info(p)
			if err != nil {
				continue
			}
			if si.Stale() {
				out = append(out, Finding{Check: "replica-stale", Severity: Warn,
					Subject: n.Name() + ":" + p,
					Detail:  fmt.Sprintf("replica applied generation %d but has heard of %d from %s", si.Gen, si.Highest, si.Home)})
			}
			d, err := n.Digest(p)
			if err != nil {
				continue
			}
			byPath[p] = append(byPath[p], holder{machine: n.Name(), digest: d,
				isHome: si.IsHome, migrating: si.Migrating, epoch: si.Epoch,
				gen: si.Gen, tv: si.Tv, leaseUntil: si.LeaseUntil})
		}
	}
	paths := make([]string, 0, len(byPath))
	for p := range byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		hs := byPath[p]
		var home *holder
		homes := 0
		for i := range hs {
			if hs[i].isHome {
				homes++
				if home == nil || hs[i].epoch > home.epoch {
					home = &hs[i]
				}
			}
		}
		// Orphaned home: a migration handshake died on the wire and no
		// machine will ever accept a write for this segment again.
		if homes == 0 {
			out = append(out, Finding{Check: "home-orphaned", Severity: Critical, Subject: p,
				Detail: fmt.Sprintf("no machine claims the home role across %d holders; writes are impossible", len(hs))})
			continue
		}
		if homes > 1 {
			names := make([]string, 0, homes)
			for i := range hs {
				if hs[i].isHome {
					names = append(names, fmt.Sprintf("%s(epoch %d)", hs[i].machine, hs[i].epoch))
				}
			}
			out = append(out, Finding{Check: "home-duplicated", Severity: Critical, Subject: p,
				Detail: fmt.Sprintf("%d machines claim the home role after quiesce: %s", homes, strings.Join(names, ", "))})
		}
		if home.migrating {
			out = append(out, Finding{Check: "home-frozen", Severity: Warn, Subject: home.machine + ":" + p,
				Detail: "a migration offer is still in flight after quiesce; writes are frozen"})
		}
		for _, h := range hs {
			if h.isHome {
				continue
			}
			if h.digest != home.digest {
				// A replica that knows it is behind is already reported as
				// stale; divergence at the SAME generation is the serious
				// case — the protocol thinks it converged and it did not.
				sev := Warn
				if h.epoch == home.epoch && h.gen == home.gen {
					sev = Critical
				}
				out = append(out, Finding{Check: "replica-diverged", Severity: sev,
					Subject: h.machine + ":" + p,
					Detail: fmt.Sprintf("content digest %016x differs from home %s's %016x (replica epoch/gen %d/%d, home %d/%d)",
						h.digest, home.machine, home.digest, h.epoch, h.gen, home.epoch, home.gen)})
				// Expired-lease reads served against drifted content: the
				// replica answers reads it can no longer vouch for.
				if h.leaseUntil > 0 && now > h.leaseUntil {
					out = append(out, Finding{Check: "lease-stale", Severity: Warn,
						Subject: h.machine + ":" + p,
						Detail: fmt.Sprintf("read lease expired at tick %d (now %d) and content differs from home %s",
							h.leaseUntil, now, home.machine)})
				}
			}
			// Version-clock divergence at an agreed (epoch, gen) breaks
			// transactional validation: a txn validated here could commit
			// against state the home never had.
			if h.epoch == home.epoch && h.gen == home.gen && h.tv != home.tv {
				out = append(out, Finding{Check: "txn-clock-diverged", Severity: Critical,
					Subject: h.machine + ":" + p,
					Detail: fmt.Sprintf("version clock %d differs from home %s's %d at epoch/gen %d/%d",
						h.tv, home.machine, home.tv, h.epoch, h.gen)})
			}
		}
	}
	return out
}
