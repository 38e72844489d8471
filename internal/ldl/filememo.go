package ldl

import (
	"sync"

	"hemlock/internal/kern"
	"hemlock/internal/objfile"
	"hemlock/internal/shmfs"
)

// memoSize bounds the decoded executables, and the decoded templates, a
// World keeps at the number of zygotes the kernel parks.
const memoSize = kern.MaxZygotes

// fileMemo maps a path to a value decoded from the file's bytes, together
// with the file's shmfs.ContentVersion taken before those bytes were read.
// A load under any other fingerprint misses, so a rewritten, re-created or
// re-pointed file is decoded again. With max > 0 it holds at most max
// paths and evicts the least recently used one; the zero value is an
// empty, unbounded memo. It is safe for concurrent use.
type fileMemo[T any] struct {
	max   int
	mu    sync.Mutex
	m     map[string]*memoEntry[T]
	clock uint64 // advances on every hit and fill; orders eviction
}

type memoEntry[T any] struct {
	cv   uint64
	v    T
	used uint64 // clock at last use
}

// load returns decode applied to the bytes of path, read as uid, reusing
// the value memoized for the file's current fingerprint, and that
// fingerprint; hit reports whether it reused a value. A hit allocates
// nothing. The fingerprint is taken before the read, so a write racing the
// read and decode leaves the value under the older fingerprint, which the
// next load no longer matches: it costs a miss, never a stale hit.
func (f *fileMemo[T]) load(fs *shmfs.FS, path string, uid int, decode func([]byte) (T, error)) (v T, cv uint64, hit bool, err error) {
	cv, cvErr := fs.ContentVersion(path)
	if cvErr == nil {
		if got, ok := f.get(path, cv); ok {
			return got, cv, true, nil
		}
	}
	b, err := fs.ReadFile(path, uid)
	if err != nil {
		return v, cv, false, err
	}
	if v, err = decode(b); err == nil && cvErr == nil {
		f.put(path, cv, v)
	}
	return v, cv, false, err
}

func (f *fileMemo[T]) get(path string, cv uint64) (v T, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	e := f.m[path]
	if e == nil || e.cv != cv {
		return v, false
	}
	f.clock++
	e.used = f.clock
	return e.v, true
}

func (f *fileMemo[T]) put(path string, cv uint64, v T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.m == nil {
		f.m = map[string]*memoEntry[T]{}
	}
	if _, ok := f.m[path]; !ok && f.max > 0 && len(f.m) >= f.max {
		var lru string
		oldest := f.clock + 1
		for p, e := range f.m {
			if e.used < oldest {
				lru, oldest = p, e.used
			}
		}
		delete(f.m, lru)
	}
	f.clock++
	f.m[path] = &memoEntry[T]{cv: cv, v: v, used: f.clock}
}

// LoadExecutable reads the HEMX image at path. Decoded images are memoized
// by path and content fingerprint, so loading an unchanged executable
// again returns the same *Image without reading or decoding it. A World
// keeps at most memoSize of them, and the World a reboot makes starts
// with none. Callers must not modify the image.
func (w *World) LoadExecutable(path string) (*objfile.Image, error) {
	im, _, hit, err := w.exeMemo.load(w.K.FS, path, 0, objfile.DecodeImageBytes)
	if hit {
		w.ctrExeHit.Inc()
	} else {
		w.ctrExeMiss.Inc()
	}
	return im, err
}
