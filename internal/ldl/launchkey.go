// Stable linking: the launch key.
//
// For a given program the linker does exactly the same work on every
// launch — the same modules come in, the same symbols resolve to the same
// public addresses, the same words get patched. The launch key names that
// work: a content hash over the whole load image (bytes, search strategy,
// the linker's layout version), the uid and the environment. The kernel's
// zygote registry parks one fully linked process per key, and core clones
// it instead of linking again; the registry itself checks that the
// templates the parked process was linked from are unchanged.
package ldl

import (
	"sort"

	"hemlock/internal/linker"
	"hemlock/internal/objfile"
)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

func fnvStr(h uint64, s string) uint64 {
	h = fnvU32(h, uint32(len(s)))
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

func fnvU32(h uint64, v uint32) uint64 {
	for s := 24; s >= 0; s -= 8 {
		h = (h ^ uint64(byte(v>>s))) * fnvPrime
	}
	return h
}

// imageHash fingerprints every field of the load image that influences
// linking, and the layout linker.Place gives the modules it brings in.
// LaunchKey computes it once per image through Image.LinkHash: a launch
// loop re-launches one *Image thousands of times.
func imageHash(im *objfile.Image) uint64 {
	h := fnvU32(fnvOffset, linker.LayoutVersion)
	h = fnvStr(h, im.Name)
	h = fnvU32(h, im.Entry)
	h = fnvU32(h, im.TextBase)
	h = fnvBytes(h, im.Text)
	h = fnvU32(h, im.DataBase)
	h = fnvBytes(h, im.Data)
	h = fnvU32(h, im.BssBase)
	h = fnvU32(h, im.BssSize)
	h = fnvU32(h, im.TrampBase)
	h = fnvU32(h, im.TrampSize)
	for _, s := range im.Symbols {
		h = fnvStr(h, s.Name)
		h = fnvU32(h, s.Addr)
		h = fnvU32(h, s.Size)
	}
	for _, r := range im.Relocs {
		h = fnvU32(h, r.Addr)
		h = fnvStr(h, r.Name)
		h = fnvU32(h, uint32(r.Type))
		h = fnvU32(h, uint32(r.Addend))
	}
	d := &im.Dyn
	for _, m := range d.DynModules {
		h = fnvStr(h, m.Name)
		h = fnvU32(h, uint32(m.Class))
	}
	for _, sp := range d.StaticPublic {
		h = fnvStr(h, sp.Name)
		h = fnvStr(h, sp.Path)
		h = fnvStr(h, sp.Template)
		h = fnvU32(h, sp.Addr)
	}
	h = fnvStr(h, d.LinkDir)
	for _, p := range d.CmdPath {
		h = fnvStr(h, p)
	}
	for _, p := range d.EnvPath {
		h = fnvStr(h, p)
	}
	for _, p := range d.DefaultPath {
		h = fnvStr(h, p)
	}
	for _, s := range im.PLT {
		h = fnvStr(h, s.Name)
		h = fnvU32(h, s.Addr)
		h = fnvU32(h, s.Size)
	}
	return h
}

// LaunchKey derives the zygote key for launching im as uid with env: the
// image content hash mixed with the launch identity, hex-encoded. Identical
// keys mean the linker would do identical work.
func (w *World) LaunchKey(im *objfile.Image, uid int, env map[string]string) string {
	h := im.LinkHash(imageHash)
	h = fnvU32(h, uint32(uid))
	if len(env) > 0 {
		keys := make([]string, 0, len(env))
		for k := range env {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			h = fnvStr(h, k)
			h = fnvStr(h, env[k])
		}
	}
	const hex = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hex[h&0xf]
		h >>= 4
	}
	return string(b[:])
}
