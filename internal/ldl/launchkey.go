// Stable linking: the launch key.
//
// For a given program the linker does exactly the same work on every
// launch — the same modules come in, the same symbols resolve to the same
// public addresses, the same words get patched. The launch key names that
// work: a hash of the load image's HEMX encoding (objfile.Image.LinkHash),
// the uid and the environment. The kernel's zygote registry parks one
// fully linked process per key, and core clones it instead of linking
// again; the registry itself checks that the templates the parked process
// was linked from are unchanged. Keys live only in memory, so nothing
// that outlives the process holds one.
package ldl

import (
	"sort"

	"hemlock/internal/objfile"
)

const fnvPrime = 1099511628211

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

// LaunchKey derives the zygote key for launching im as uid with env: the
// image's LinkHash mixed with the uid and the sorted environment.
// Identical keys mean the linker would do identical work. It fails only
// for an image the codec cannot encode; such an image cannot be saved
// either, and core launches it cold without parking it.
func (w *World) LaunchKey(im *objfile.Image, uid int, env map[string]string) (uint64, error) {
	h, err := im.LinkHash()
	if err != nil {
		return 0, err
	}
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
	return h, nil
}
