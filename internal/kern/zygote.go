package kern

import (
	"fmt"
	"sort"

	"hemlock/internal/obsv"
	"hemlock/internal/vm"

	"hemlock/internal/addrspace"
)

// Zygote launches: after a cold launch has fully linked, the kernel can park
// a snapshot of the linked process as a hidden template and satisfy later
// identical launches by CoW-forking the template — the steady-state launch
// cost becomes a fork, not a link. Templates are keyed by the launch's
// content hash (the image's HEMX encoding + uid + environment), so a key
// match means "this launch would reach a bit-identical post-link state" as
// long as the module templates it was linked from are unchanged. Each
// template keeps that list, the manifest, with every template's
// shmfs.ContentVersion, and a clone first checks it: a rewritten,
// re-created or re-pointed template drops the zygote and the launch links
// cold. The differential harness holds clones to StateHash equality with
// cold launches.
//
// Templates deliberately live outside the process table and outside the
// normal PID sequence: guests can observe PIDs (SysGetPID), and a world that
// warms zygotes must hand out exactly the same PIDs as a world that links
// every launch cold.

// zygotePIDBase is where hidden template PIDs start — far above any PID the
// sequential allocator will reach, and never visible to a guest (templates
// are parked and never run).
const zygotePIDBase = 1 << 30

// MaxZygotes caps the registry; registering past the cap evicts the oldest
// template (registration order) and releases its address space.
const MaxZygotes = 64

// Hidden reports whether p is a parked zygote template rather than a real
// process: outside the process table, never run, invisible to guests.
// Accounting that tracks per-process state (e.g. the linker's pending-reloc
// aggregate) skips hidden processes.
func (p *Process) Hidden() bool { return p.PID >= zygotePIDBase }

type zygote struct {
	template *Process
	arch     vm.ArchState // the template's CPU state; it has no CPU
	manifest []ZygoteDep
	clones   uint64
}

// ZygoteDep is one line of a zygote's manifest: a module template the
// launch was linked from, and its shmfs.ContentVersion taken no later than
// when the zygote was parked.
type ZygoteDep struct {
	Path string
	CV   uint64
}

// ZygoteInfo describes one registered template for inspection (server
// /api/info). Key is the launch key as 16 hex digits.
type ZygoteInfo struct {
	Key    string `json:"key"`
	PID    int    `json:"pid"`
	Pages  int    `json:"pages"`
	Clones uint64 `json:"clones"`
}

// spawnZygote creates a hidden process: wired like Spawn, but the PID
// comes from the zygote range and the process is not entered in the process
// table, so Processes(), PID allocation, and the trace stream are exactly
// what they would be in a world without zygotes. It never runs, so it gets
// no CPU and no file table.
func (k *Kernel) spawnZygote(uid int) *Process {
	k.mu.Lock()
	defer k.mu.Unlock()
	p := &Process{
		K:           k,
		PID:         k.nextZPID,
		UID:         uid,
		AS:          addrspace.New(k.Phys),
		Env:         map[string]string{},
		CWD:         "/",
		nextFD:      3,
		mappedPages: map[int]int{},
	}
	p.AS.Observe(k.Obs.Tracer(), k.ctrASMaps, k.ctrASUnmaps, p.PID)
	k.nextZPID++
	return p
}

// RegisterZygote snapshots parent (which must be freshly linked and not yet
// run) as the template for key, with the manifest of module templates it
// was linked from. A template already registered under key wins;
// registration is idempotent.
func (k *Kernel) RegisterZygote(key uint64, parent *Process, manifest []ZygoteDep) {
	k.zmu.Lock()
	_, exists := k.zygotes[key]
	k.zmu.Unlock()
	if exists || parent.Exited {
		return
	}
	tpl := k.spawnZygote(parent.UID)
	k.forkInto(parent, tpl)
	tpl.PPID = 0

	k.zmu.Lock()
	defer k.zmu.Unlock()
	if _, raced := k.zygotes[key]; raced {
		tpl.AS.Release()
		return
	}
	for len(k.zorder) >= MaxZygotes {
		oldest := k.zorder[0]
		k.zorder = k.zorder[1:]
		if z, ok := k.zygotes[oldest]; ok {
			z.template.AS.Release()
			delete(k.zygotes, oldest)
		}
	}
	k.zygotes[key] = &zygote{template: tpl, arch: parent.CPU.ArchState(), manifest: manifest}
	k.zorder = append(k.zorder, key)
	k.ctrZygReg.Inc()
	if t := k.Obs.Tracer(); t.Enabled() {
		t.Emit(obsv.Event{Subsys: "kern", Name: "zygote_register", PID: parent.PID, Val: uint64(len(k.zygotes))})
	}
}

// CloneZygote satisfies a launch from the template registered under key: the
// returned process is a normal table-registered process (next sequential
// PID) whose address space is a CoW clone of the fully linked template.
// It first re-fingerprints the template's manifest; if any module template
// changed or is gone, it drops the zygote, counts kern.zygote_invalidate
// and reports a miss, as it does when no template is registered. A clone
// is a whole launch, so it opens the launch's root span itself, labelled
// name; a miss opens none, and the caller's cold launch opens its own.
func (k *Kernel) CloneZygote(key uint64, name string) (*Process, bool) {
	k.zmu.Lock()
	z, ok := k.zygotes[key]
	k.zmu.Unlock()
	if !ok {
		return nil, false
	}
	for _, d := range z.manifest {
		if cv, err := k.FS.ContentVersion(d.Path); err != nil || cv != d.CV {
			k.DropZygote(key)
			k.ctrZygInval.Inc()
			if t := k.Obs.Tracer(); t.Enabled() {
				t.Emit(obsv.Event{Subsys: "kern", Name: "zygote_invalidate", Mod: fmt.Sprintf("%016x by %s", key, d.Path)})
			}
			return nil, false
		}
	}
	t := k.Obs.Tracer()
	sp := t.Begin("kern", "launch", 0, name)
	zsp := t.Begin("link", "zygote_clone", 0, name)
	child := k.Spawn(z.template.UID)
	k.forkInto(z.template, child)
	child.CPU.SetArchState(z.arch)
	child.PPID = 0
	zsp.End(0)
	sp.End(0)
	k.zmu.Lock()
	z.clones++
	k.zmu.Unlock()
	k.ctrZygClone.Inc()
	return child, true
}

// DropZygote removes the template for key and releases its address space.
func (k *Kernel) DropZygote(key uint64) {
	k.zmu.Lock()
	defer k.zmu.Unlock()
	z, ok := k.zygotes[key]
	if !ok {
		return
	}
	z.template.AS.Release()
	delete(k.zygotes, key)
	for i, kk := range k.zorder {
		if kk == key {
			k.zorder = append(k.zorder[:i], k.zorder[i+1:]...)
			break
		}
	}
}

// DropAllZygotes empties the registry, releasing every template.
func (k *Kernel) DropAllZygotes() {
	k.zmu.Lock()
	defer k.zmu.Unlock()
	for key, z := range k.zygotes {
		z.template.AS.Release()
		delete(k.zygotes, key)
	}
	k.zorder = nil
}

// Zygotes returns the registry contents sorted by key.
func (k *Kernel) Zygotes() []ZygoteInfo {
	k.zmu.Lock()
	defer k.zmu.Unlock()
	out := make([]ZygoteInfo, 0, len(k.zygotes))
	for key, z := range k.zygotes {
		out = append(out, ZygoteInfo{
			Key:    fmt.Sprintf("%016x", key),
			PID:    z.template.PID,
			Pages:  z.template.AS.PageCountMapped(),
			Clones: z.clones,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
