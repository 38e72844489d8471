package core

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"hemlock/internal/objfile"
)

func exeCounters(s *System) (hit, miss uint64) {
	c := s.Obs().R.Snapshot().Counters
	return c["core.exe_cache_hit"], c["core.exe_cache_miss"]
}

func mustLoad(t *testing.T, s *System, path string) *objfile.Image {
	t.Helper()
	im, err := s.LoadExecutable(path)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// TestLoadExecutableCachesByFingerprint: a repeat load of an unchanged
// executable returns the image already decoded, and anything that changes
// the file's bytes (a re-save, a store through a mapping of it, an unlink
// and re-create, a reboot) misses.
func TestLoadExecutableCachesByFingerprint(t *testing.T) {
	s := NewSystem()
	im := linkCounter(t, s)
	if err := s.SaveExecutable("/bin/a", im); err != nil {
		t.Fatal(err)
	}
	first := mustLoad(t, s, "/bin/a")
	if again := mustLoad(t, s, "/bin/a"); again != first {
		t.Fatal("repeat load of an unchanged executable decoded it again")
	}
	if hit, miss := exeCounters(s); hit != 1 || miss != 1 {
		t.Fatalf("hit/miss = %d/%d, want 1/1", hit, miss)
	}

	steps := []struct {
		what   string
		change func() error
	}{
		{"re-save", func() error { return s.SaveExecutable("/bin/a", im) }},
		{"mapped store", func() error {
			frames, _, err := s.FS.Frames("/bin/a", 0, 0, true)
			if err == nil {
				frames[0].StoreWordBE(0, frames[0].LoadWordBE(0))
			}
			return err
		}},
		{"unlink and re-create", func() error {
			if err := s.FS.Unlink("/bin/a", 0); err != nil {
				return err
			}
			return s.SaveExecutable("/bin/a", im)
		}},
		{"reset", func() error { s.ResetWorld(); return nil }},
	}
	prev := first
	for i, st := range steps {
		if err := st.change(); err != nil {
			t.Fatalf("%s: %v", st.what, err)
		}
		got := mustLoad(t, s, "/bin/a")
		if got == prev {
			t.Fatalf("load after %s returned the cached image", st.what)
		}
		if hit, miss := exeCounters(s); hit != 1 || miss != uint64(i+2) {
			t.Fatalf("after %s: hit/miss = %d/%d, want 1/%d", st.what, hit, miss, i+2)
		}
		prev = got
	}

	// A missing file is an error, counted as a miss, and caches nothing.
	if _, err := s.LoadExecutable("/bin/none"); err == nil {
		t.Fatal("loading a missing executable succeeded")
	}
}

// TestExeCacheHitAllocatesNothing: a hit is one fingerprint and one map
// lookup.
func TestExeCacheHitAllocatesNothing(t *testing.T) {
	s := NewSystem()
	if err := s.SaveExecutable("/usr/local/bin/a", linkCounter(t, s)); err != nil {
		t.Fatal(err)
	}
	mustLoad(t, s, "/usr/local/bin/a")
	if n := testing.AllocsPerRun(100, func() { s.LoadExecutable("/usr/local/bin/a") }); n != 0 {
		t.Fatalf("a cache hit allocates %.1f times, want 0", n)
	}
}

// TestExeCacheConcurrentLoads: loaders of one rewritten path and of two
// unchanged paths run alongside a writer. Every image returned must be a
// decode of bytes the file held at some instant during that load, and
// once the writer stops, a load returns the last version written.
func TestExeCacheConcurrentLoads(t *testing.T) {
	const loaders, loads, writes = 4, 1000, 1000
	s := NewSystem()
	base, err := linkCounter(t, s).ImageBytes()
	if err != nil {
		t.Fatal(err)
	}
	// version(n) names the image "v%04d" (as long as "a.out", so every
	// version has one size): version 0 is the file's first content, and
	// the writer's i-th write stores version i+1.
	version := func(n int) []byte {
		im, err := objfile.DecodeImageBytes(base)
		if err != nil {
			t.Fatal(err)
		}
		im.Name = fmt.Sprintf("v%04d", n)
		b, err := im.ImageBytes()
		if err != nil || len(b) != len(base) {
			t.Fatalf("version %d: %d bytes, %v", n, len(b), err)
		}
		return b
	}
	versions := make([][]byte, writes+1)
	for n := range versions {
		versions[n] = version(n)
	}
	paths := []string{"/bin/w", "/bin/x", "/bin/y"}
	for _, p := range paths {
		if err := s.writeFile(p, versions[0]); err != nil {
			t.Fatal(err)
		}
	}

	var done atomic.Int64 // writes finished
	var wg sync.WaitGroup
	errs := make(chan error, loaders+1)
	wg.Add(loaders + 1)
	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			// Rewritten as SaveExecutable writes it: WriteFile truncates
			// and writes in one step.
			if err := s.writeFile("/bin/w", versions[i+1]); err != nil {
				errs <- err
				return
			}
			done.Store(int64(i + 1))
		}
	}()
	for g := 0; g < loaders; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < loads; i++ {
				p := paths[(g+i)%len(paths)]
				lo := done.Load()
				im, err := s.LoadExecutable(p)
				hi := done.Load()
				if err != nil {
					errs <- fmt.Errorf("%s: %v", p, err)
					return
				}
				var n int64
				fmt.Sscanf(im.Name, "v%04d", &n)
				// Only writes lo to hi+1 can have landed during the load.
				if p != "/bin/w" {
					lo, hi = 0, 0
				}
				if n < lo || n > hi+1 || !bytes.Equal(mustEncode(t, im), versions[n]) {
					errs <- fmt.Errorf("%s: loaded %q while versions %d to %d were current", p, im.Name, lo, hi+1)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for p, want := range map[string][]byte{"/bin/w": versions[writes], "/bin/x": versions[0], "/bin/y": versions[0]} {
		if !bytes.Equal(mustEncode(t, mustLoad(t, s, p)), want) {
			t.Fatalf("%s after the writer stopped: stale image", p)
		}
	}
}

func mustEncode(t *testing.T, im *objfile.Image) []byte {
	b, err := im.ImageBytes()
	if err != nil {
		t.Error(err)
	}
	return b
}
