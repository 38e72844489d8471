// Command hemlock drives a persistent Hemlock machine from the host shell.
// The machine's entire shared file system lives in a disk-image file, so a
// public module created by one invocation is still there — at the same
// virtual address — for the next, exactly like the persistent segments of
// the paper.
//
//	hemlock mkfs                                  create a fresh disk image
//	hemlock cp <hostfile> <fspath>                copy a host file in
//	hemlock cat <fspath>                          print a file
//	hemlock as <src.s> <out.o>                    assemble a template
//	hemlock lds -o <out> [-L dir] class:module... static link
//	hemlock run <image> [-e K=V] [-steps N]       launch and run a program
//	hemlock stats <image> [-json]                 run a program and print metrics
//	hemlock ls <dir> | stat <path> | rm <path>    file system operations
//	hemlock nm <obj> | dis <obj>                  inspect modules
//	hemlock layout <image>                        print the address map (Figure 3)
//	hemlock fsck                                  check & peruse all segments
//	hemlock fleet [-n 8] [-loss 20] [-rounds 3]   run an rwho fleet over netshm
//	hemlock serve [-addr host:port] [-demo]       HTTP daemon over the persistent world
//	hemlock load [-addr URL] [-clients N]         drive load, print the latency table
//	hemlock doctor                                self-check segments, heaps and images
//
// Every subcommand accepts -img <file> (default hemlock.img) and
// -trace <file>, which captures every kernel/VM/linker event: JSON Lines
// by default, or the Chrome trace_event format when the file ends in
// .json (load it in chrome://tracing or ui.perfetto.dev). The profilers
// ride the same flags: -profile launch prints a per-phase breakdown of
// every launch the subcommand performs, and -profile guest attributes
// retired guest instructions to module:function (run only). -profile-out
// <file> additionally writes the launch profile as a Chrome trace, or the
// guest profile in folded-stack format for flamegraph.pl. See
// docs/OBSERVABILITY.md.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hemlock"
	"hemlock/internal/layout"
	"hemlock/internal/lds"
	"hemlock/internal/objfile"
	"hemlock/internal/obsv"
	"hemlock/internal/obsv/prof"
	"hemlock/internal/shmfs"

	"hemlock/internal/isa"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: hemlock [-img file] [-trace file] [-profile launch|guest [-profile-out file]] <mkfs|cp|cat|as|lds|run|stats|ls|stat|rm|nm|dis|layout|fsck|fleet|serve|load|doctor> ...")
	os.Exit(2)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hemlock:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (retErr error) {
	img := "hemlock.img"
	tracePath := ""
	profMode := ""
	profOut := ""
	// Allow leading -img, -trace and -profile flags, in any order, before
	// the subcommand.
	for len(args) >= 2 {
		switch args[0] {
		case "-img":
			img = args[1]
		case "-trace":
			tracePath = args[1]
		case "-profile":
			profMode = args[1]
		case "-profile-out":
			profOut = args[1]
		default:
			goto parsed
		}
		args = args[2:]
	}
parsed:
	switch profMode {
	case "", "launch", "guest":
	default:
		return fmt.Errorf("-profile %q: want launch or guest", profMode)
	}
	if len(args) == 0 {
		usage()
	}
	cmd, rest := args[0], args[1:]

	if cmd == "mkfs" {
		s := hemlock.New()
		return saveImage(s, img)
	}
	if cmd == "fleet" {
		// A fleet is its own set of freshly-booted machines; it neither
		// reads nor writes the disk image.
		return cmdFleet(rest, out)
	}

	s, err := loadImage(img)
	if err != nil {
		return err
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if strings.HasSuffix(tracePath, ".json") {
			s.Obs().T.Attach(obsv.NewChromeTrace(f))
		} else {
			s.Obs().T.Attach(obsv.NewJSONL(f))
		}
		defer func() {
			if cerr := s.Obs().T.Close(); cerr != nil && retErr == nil {
				retErr = fmt.Errorf("writing trace %s: %w", tracePath, cerr)
			}
		}()
	}
	var launchProf *prof.LaunchProfile
	if profMode == "launch" {
		launchProf = prof.NewLaunchProfile()
		s.Obs().T.Attach(launchProf)
		// The same spans also feed duration histograms, so a follow-up
		// stats run can read p95 launch phases from the registry.
		s.Obs().T.Attach(obsv.NewSpanDurations(s.Obs().R))
		if profOut != "" {
			f, err := os.Create(profOut)
			if err != nil {
				return err
			}
			s.Obs().T.Attach(obsv.NewChromeTrace(f))
		}
		defer func() {
			if cerr := s.Obs().T.Close(); cerr != nil && retErr == nil {
				retErr = fmt.Errorf("writing profile %s: %w", profOut, cerr)
			}
			fmt.Fprint(out, launchProf.Report().Table())
		}()
	}
	dirty := false
	switch cmd {
	case "cp":
		if len(rest) != 2 {
			return fmt.Errorf("cp needs <hostfile> <fspath>")
		}
		data, err := os.ReadFile(rest[0])
		if err != nil {
			return err
		}
		if err := writeFSFile(s, rest[1], data); err != nil {
			return err
		}
		dirty = true
	case "cat":
		if len(rest) != 1 {
			return fmt.Errorf("cat needs <fspath>")
		}
		data, err := s.FS.ReadFile(rest[0], 0)
		if err != nil {
			return err
		}
		out.Write(data)
	case "as":
		if len(rest) != 2 {
			return fmt.Errorf("as needs <src.s> <out.o>")
		}
		src, err := s.FS.ReadFile(rest[0], 0)
		if err != nil {
			return err
		}
		obj, err := isa.Assemble(base(rest[1]), string(src))
		if err != nil {
			return err
		}
		if err := s.AddTemplate(rest[1], obj); err != nil {
			return err
		}
		fmt.Fprintf(out, "assembled %s: %d text, %d data, %d bss bytes, %d relocs\n",
			rest[1], len(obj.Text), len(obj.Data), obj.BssSize, len(obj.Relocs))
		dirty = true
	case "lds":
		if err := cmdLds(s, rest, out); err != nil {
			return err
		}
		dirty = true
	case "run":
		if err := cmdRun(s, rest, out, profMode == "guest", profOut); err != nil {
			return err
		}
		dirty = true // programs may create segments
	case "stats":
		if err := cmdStats(s, rest, out); err != nil {
			return err
		}
		dirty = true
	case "ls":
		dir := "/"
		if len(rest) == 1 {
			dir = rest[0]
		}
		ents, err := s.FS.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range ents {
			st, _ := s.FS.LstatPath(dir + "/" + e.Name)
			fmt.Fprintf(out, "%-8s ino=%-4d size=%-8d 0x%08x  %s\n", e.Type, e.Ino, st.Size, shmfs.AddrOf(e.Ino), e.Name)
		}
	case "stat":
		if len(rest) != 1 {
			return fmt.Errorf("stat needs <path>")
		}
		st, err := s.FS.StatPath(rest[0])
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "path:  %s\ntype:  %s\nino:   %d\nsize:  %d\nmode:  %04o\nuid:   %d\naddr:  0x%08x\n",
			rest[0], st.Type, st.Ino, st.Size, st.Mode, st.UID, st.Addr)
	case "rm":
		if len(rest) != 1 {
			return fmt.Errorf("rm needs <path>")
		}
		err := s.FS.Unlink(rest[0], 0)
		if errors.Is(err, shmfs.ErrIsDir) {
			err = s.FS.Rmdir(rest[0], 0) // fails, naming the path, unless empty
		}
		if err != nil {
			return err
		}
		dirty = true
	case "nm":
		if len(rest) != 1 {
			return fmt.Errorf("nm needs <obj or image path>")
		}
		if obj, err := readObj(s, rest[0]); err == nil {
			for _, sym := range obj.Symbols {
				kind := "U"
				if sym.Defined() {
					kind = strings.ToUpper(sym.Section.String()[:1])
					if !sym.Global {
						kind = strings.ToLower(kind)
					}
				}
				fmt.Fprintf(out, "%08x %s %s\n", sym.Value, kind, sym.Name)
			}
			break
		}
		im, err := s.LoadExecutable(rest[0])
		if err != nil {
			return err
		}
		for _, sym := range im.Symbols {
			fmt.Fprintf(out, "%08x T %s\n", sym.Addr, sym.Name)
		}
		for _, r := range im.UndefinedRelocs() {
			fmt.Fprintf(out, "%8s U %s\n", "", r)
		}
		for _, p := range im.PLT {
			fmt.Fprintf(out, "%08x P %s\n", p.Addr, p.Name)
		}
	case "dis":
		if len(rest) != 1 {
			return fmt.Errorf("dis needs <obj or image path>")
		}
		if obj, err := readObj(s, rest[0]); err == nil {
			io.WriteString(out, isa.DisassembleText(obj.Text, 0))
			break
		}
		im, err := s.LoadExecutable(rest[0])
		if err != nil {
			return err
		}
		io.WriteString(out, isa.DisassembleText(im.Text, im.TextBase))
	case "layout":
		if err := cmdLayout(s, rest, out); err != nil {
			return err
		}
	case "fsck":
		if err := cmdFsck(s, out); err != nil {
			return err
		}
	case "serve":
		if err := cmdServe(s, rest, out); err != nil {
			return err
		}
		dirty = true // the daemon's world persists across restarts
	case "load":
		if err := cmdLoad(s, rest, out); err != nil {
			return err
		}
		dirty = true // in-process runs launch programs into the image
	case "doctor":
		if err := cmdDoctor(s, rest, out); err != nil {
			return err
		}
	default:
		usage()
	}
	if dirty {
		return saveImage(s, img)
	}
	return nil
}

func base(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}

func loadImage(path string) (*hemlock.System, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("opening disk image %s (run 'hemlock mkfs' first?): %w", path, err)
	}
	defer f.Close()
	return hemlock.Load(f)
}

func saveImage(s *hemlock.System, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := s.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func writeFSFile(s *hemlock.System, path string, data []byte) error {
	dir := path
	if i := strings.LastIndexByte(dir, '/'); i > 0 {
		if err := s.FS.MkdirAll(dir[:i], shmfs.DefaultDirMode, 0); err != nil {
			return err
		}
	}
	return s.FS.WriteFile(path, data, shmfs.DefaultFileMode, 0)
}

func readObj(s *hemlock.System, path string) (*hemlock.Object, error) {
	data, err := s.FS.ReadFile(path, 0)
	if err != nil {
		return nil, err
	}
	return objfile.DecodeBytes(data)
}

func parseClass(tag string) (hemlock.Class, error) {
	switch tag {
	case "sp", "static-private":
		return hemlock.StaticPrivate, nil
	case "dp", "dynamic-private":
		return hemlock.DynamicPrivate, nil
	case "spub", "static-public":
		return hemlock.StaticPublic, nil
	case "dpub", "dynamic-public":
		return hemlock.DynamicPublic, nil
	}
	return 0, fmt.Errorf("unknown sharing class %q (sp|dp|spub|dpub)", tag)
}

func cmdLds(s *hemlock.System, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lds", flag.ContinueOnError)
	outPath := fs.String("o", "/bin/a.out", "output image path")
	linkDir := fs.String("C", "/", "directory in which linking occurs")
	var dirs multiFlag
	fs.Var(&dirs, "L", "search directory (repeatable)")
	env := fs.String("env", "", "LD_LIBRARY_PATH at static link time")
	var defaults multiFlag
	fs.Var(&defaults, "default", "default library directory (repeatable)")
	jumpTables := fs.Bool("jumptables", false, "route calls to unknown functions through lazy jump-table stubs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("lds: no modules (use class:module, e.g. sp:main.o dpub:shared.o)")
	}
	opts := &lds.Options{
		Output:      *outPath,
		LinkDir:     *linkDir,
		CmdPath:     dirs,
		DefaultPath: defaults,
		JumpTables:  *jumpTables,
	}
	if *env != "" {
		opts.EnvPath = strings.Split(*env, ":")
	}
	for _, m := range fs.Args() {
		tag, name, ok := strings.Cut(m, ":")
		if !ok {
			return fmt.Errorf("lds: module %q must be class:name", m)
		}
		class, err := parseClass(tag)
		if err != nil {
			return err
		}
		opts.Modules = append(opts.Modules, hemlock.Module{Name: name, Class: class})
	}
	res, err := s.Link(opts)
	if err != nil {
		return err
	}
	for _, w := range res.Warnings {
		fmt.Fprintln(os.Stderr, w)
	}
	if err := s.SaveExecutable(*outPath, res.Image); err != nil {
		return err
	}
	fmt.Fprintf(out, "linked %s: entry 0x%08x, %d bytes text, %d symbols, %d retained relocs, %d dynamic modules\n",
		*outPath, res.Image.Entry, len(res.Image.Text), len(res.Image.Symbols),
		len(res.Image.Relocs), len(res.Image.Dyn.DynModules))
	return nil
}

func cmdRun(s *hemlock.System, args []string, out io.Writer, guestProf bool, profOut string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	steps := fs.Uint64("steps", 10_000_000, "instruction budget")
	uid := fs.Int("uid", 0, "user id")
	verbose := fs.Bool("v", false, "trace dynamic-linker events to stderr")
	topN := fs.Int("top", 20, "symbols to print with -profile guest")
	var envs multiFlag
	fs.Var(&envs, "e", "environment variable K=V (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("run needs <image path>")
	}
	im, err := s.LoadExecutable(fs.Arg(0))
	if err != nil {
		return err
	}
	env := map[string]string{}
	for _, e := range envs {
		k, v, ok := strings.Cut(e, "=")
		if !ok {
			return fmt.Errorf("bad -e %q", e)
		}
		env[k] = v
	}
	if *verbose {
		// The old W.Trace closure is superseded by a text sink on the
		// kernel tracer, which carries the same linker events (typed)
		// plus every other subsystem's.
		s.Obs().T.Attach(obsv.NewText(os.Stderr))
	}
	pg, err := s.Launch(im, *uid, env)
	if err != nil {
		return err
	}
	var sampler *prof.GuestSampler
	if guestProf {
		sampler = prof.NewGuestSampler()
		pg.P.CPU.SetSampler(sampler)
	}
	runErr := pg.Run(*steps)
	io.WriteString(out, pg.Output())
	if runErr != nil {
		return runErr
	}
	fmt.Fprintf(out, "[exit %d]\n", pg.P.ExitCode)
	if sampler != nil {
		sampler.Flush(pg.P.CPU.PC, pg.P.CPU.Steps)
		sym := guestSymbolizer(im, pg)
		fmt.Fprintf(out, "\nguest profile: %d instructions attributed\n", sampler.Total())
		io.WriteString(out, sampler.TopN(sym, *topN))
		if profOut != "" {
			if err := os.WriteFile(profOut, []byte(sampler.Folded(sym)), 0644); err != nil {
				return err
			}
		}
	}
	return nil
}

// guestSymbolizer assembles the symbol sources for a finished run: the
// program image's own text, plus every module the dynamic linker brought
// in (their exports name the shared text other processes reuse).
func guestSymbolizer(im *hemlock.Image, pg *hemlock.Program) *prof.Symbolizer {
	sym := &prof.Symbolizer{}
	sym.AddModule(im.Name, im.TextBase, im.TextBase+uint32(len(im.Text)), im.Symbols)
	for _, in := range pg.LDL.Instances() {
		sym.AddModule(in.Name, in.Base, in.Base+in.Size, in.Symbols())
	}
	return sym
}

// cmdStats runs a program like cmdRun and then prints the machine's
// metrics snapshot: every counter, gauge and histogram the kernel, VM and
// linkers maintain.
func cmdStats(s *hemlock.System, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	steps := fs.Uint64("steps", 10_000_000, "instruction budget")
	uid := fs.Int("uid", 0, "user id")
	jsonOut := fs.Bool("json", false, "print the snapshot as JSON")
	var envs multiFlag
	fs.Var(&envs, "e", "environment variable K=V (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("stats needs <image path>")
	}
	im, err := s.LoadExecutable(fs.Arg(0))
	if err != nil {
		return err
	}
	env := map[string]string{}
	for _, e := range envs {
		k, v, ok := strings.Cut(e, "=")
		if !ok {
			return fmt.Errorf("bad -e %q", e)
		}
		env[k] = v
	}
	pg, err := s.Launch(im, *uid, env)
	if err != nil {
		return err
	}
	runErr := pg.Run(*steps)
	os.Stderr.WriteString(pg.Output())
	if runErr != nil {
		return runErr
	}
	snap := s.Obs().R.Snapshot()
	if *jsonOut {
		b, err := snap.JSON()
		if err != nil {
			return err
		}
		out.Write(b)
		io.WriteString(out, "\n")
		return nil
	}
	io.WriteString(out, snap.Text())
	return nil
}

func cmdLayout(s *hemlock.System, args []string, out io.Writer) error {
	fmt.Fprintln(out, "Hemlock address space (Figure 3):")
	for _, r := range []struct {
		lo, hi uint32
	}{
		{0x00000000, layout.TextLimit},
		{layout.PrivDataBase, layout.PrivDataLimit},
		{layout.SharedBase, layout.SharedLimit},
		{layout.StackBase, layout.KernelBase},
		{layout.KernelBase, 0xFFFFFFFF},
	} {
		fmt.Fprintf(out, "  0x%08x - 0x%08x  %s\n", r.lo, r.hi, layout.RegionName(r.lo))
	}
	if len(args) == 1 {
		im, err := s.LoadExecutable(args[0])
		if err != nil {
			return err
		}
		pg, err := s.Launch(im, 0, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\nmappings of %s after ldl start-up:\n", args[0])
		for _, r := range pg.P.Regions() {
			fmt.Fprintf(out, "  0x%08x - 0x%08x  %s  %s\n", r.Start, r.End, r.Prot, layout.RegionName(r.Start))
		}
	}
	return nil
}

func cmdFsck(s *hemlock.System, out io.Writer) error {
	// Consistency: the linear table must agree with a fresh scan.
	before := s.FS.TableLen()
	n := s.FS.BootScan()
	status := "clean"
	if n != before {
		status = fmt.Sprintf("REPAIRED (table had %d entries, scan found %d)", before, n)
	}
	fmt.Fprintf(out, "shared file system: %d/%d inodes in use, lookup table %s\n",
		s.FS.InodesInUse(), shmfs.NumInodes, status)
	fmt.Fprintln(out, "segments in existence (peruse for manual cleanup):")
	return s.FS.WalkFiles(func(p string, st shmfs.Stat) error {
		fmt.Fprintf(out, "  0x%08x  %8d bytes  uid %-4d  %s\n", st.Addr, st.Size, st.UID, p)
		return nil
	})
}

type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}
