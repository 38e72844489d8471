package netshm

import (
	"bytes"
	"runtime"
	"testing"

	"hemlock/internal/fig"
	"hemlock/internal/mem"
	"hemlock/internal/objfile"
	"hemlock/internal/shmfs"
	"hemlock/internal/wire"
)

// TestHostileHeadersAllocateLittle gives each binary decoder (and fig's
// ASCII one) a short input whose header claims far more than the input
// holds. Each must fail and allocate under 64 KB: a decoder sizes nothing
// by a count the remaining bytes cannot back. The test lives in netshm
// because only here can it reach every decoder: the datagram decoder
// directly, the others through their packages' exported entry points.
func TestHostileHeadersAllocateLittle(t *testing.T) {
	const limit = 64 << 10
	build := func(fill func(e *wire.Encoder)) []byte {
		e := wire.NewEncoder(nil)
		fill(e)
		b, err := e.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	hemo := build(func(e *wire.Encoder) {
		e.Raw([]byte("HEMO"))
		e.U32(1)
		e.Str("x.o")
		e.U8(0)
		e.U32(64 << 20) // text blob
	})
	hemx := build(func(e *wire.Encoder) {
		e.Raw([]byte("HEMX"))
		e.U32(1)
		e.Str("")
		e.U32(0)        // entry
		e.U32(0)        // text base
		e.U32(64 << 20) // text blob
	})
	datagram := build(func(e *wire.Encoder) {
		e.Raw([]byte{wireMagic, wireVersion, msgUpdate, 0})
		e.Str("/lib/seg")
		for i := 0; i < 2; i++ {
			e.U32(0) // base, size
		}
		for i := 0; i < 3; i++ {
			e.U64(0) // epoch, gen, tv
		}
		e.Str("m000")
		e.U64(0) // stick
		e.Str("")
		e.U64(0)         // lease
		e.U64(0)         // txid
		e.U32(1<<32 - 1) // pages
	})
	hsfs := build(func(e *wire.Encoder) {
		e.Raw([]byte("HSFS"))
		e.U32(2)
		e.U32(64)
		for ino := 0; ino < 64; ino++ {
			e.U32(uint32(ino))
			e.U8(uint8(shmfs.TypeFile))
			e.U16(uint16(shmfs.DefaultFileMode))
			e.U32(0)       // uid
			e.U64(0)       // mtime
			e.U32(1 << 20) // size, with no content behind it
		}
	})

	cases := []struct {
		name   string
		decode func() error
	}{
		{"HEMO with a 64 MB blob", func() error { _, err := objfile.DecodeBytes(hemo); return err }},
		{"HEMX with a 64 MB blob", func() error { _, err := objfile.DecodeImageBytes(hemx); return err }},
		{"datagram with 2^32-1 pages", func() error { _, err := decodeMsg(datagram); return err }},
		{"HSFS with 64 empty 1 MB files", func() error {
			_, err := shmfs.Load(bytes.NewReader(hsfs), mem.NewPhysical(0))
			return err
		}},
		{"figure with 20000000 objects", func() error {
			_, err := fig.Decode([]byte("#FIG-lite 1.0\nobjects 20000000\n"))
			return err
		}},
	}
	for _, c := range cases {
		var err error
		// The least of three runs, so unrelated runtime allocations do
		// not count against the decoder.
		least := uint64(1<<64 - 1)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err = c.decode()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if err == nil {
			t.Errorf("%s: decoded without error", c.name)
		}
		if least >= limit {
			t.Errorf("%s: allocated %d KB, want under %d KB", c.name, least>>10, limit>>10)
		}
		t.Logf("%s: %d B, %v", c.name, least, err)
	}
}
