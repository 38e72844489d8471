package ldl

import (
	"hemlock/internal/kern"
	"hemlock/internal/objfile"
)

// Fork duplicates the per-process linker state for a forked child: the
// kernel's fork installs the result as the child's Runtime. Public module
// state (world-level) is shared — public segments are the same segment in
// parent and child; private instance bookkeeping is copied, since the
// child received copies of those segments at the same (overloaded)
// private addresses.
func (pr *Proc) Fork(child *kern.Process) kern.Runtime {
	cl := &Proc{
		W:         pr.W,
		P:         child,
		Image:     pr.Image,
		table:     pr.table,     // static symbols are immutable after Start
		imagePend: pr.imagePend, // replaced by each pass, never written
		trampNext: pr.trampNext,
		plt:       pr.plt, // stub names are immutable
	}
	// The child starts with its own copy of the pending image relocations.
	// Hidden zygote templates don't count: they are parked snapshots, not
	// running processes (their clones count when they are made).
	if !child.Hidden() {
		pr.W.addImageRelocs(len(cl.imagePend))
	}
	remap := map[*Instance]*Instance{nil: nil}
	cl.root = &Instance{Name: pr.root.Name, searchPath: pr.root.searchPath}
	remap[pr.root] = cl.root
	for _, in := range pr.instances {
		c := *in
		c.pending = append([]objfile.Reloc(nil), in.pending...)
		if in.sh == nil {
			// A private instance is the child's own copy: its later lazy
			// link writes trampolines into the child's memory.
			c.placed = in.placed.Clone()
		}
		c.depsLoaded = nil
		cl.instances = append(cl.instances, &c)
		remap[in] = &c
	}
	for i, in := range pr.instances {
		cl.instances[i].parent = remap[in.parent]
	}
	relink := func(src, dst *Instance) {
		for _, d := range src.depsLoaded {
			dst.depsLoaded = append(dst.depsLoaded, remap[d])
		}
	}
	relink(pr.root, cl.root)
	for i, in := range pr.instances {
		relink(in, cl.instances[i])
	}
	return cl
}
