package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hemlock"
	"hemlock/internal/doctor"
	"hemlock/internal/load"
	"hemlock/internal/server"
)

// cmdServe boots the long-running daemon over the disk image's world:
// every program it launches, every module ldl links and every shared
// segment written through /api/var lives in the ONE persistent machine,
// and the image is saved back when the daemon exits cleanly.
func cmdServe(s *hemlock.System, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	demo := fs.Bool("demo", false, "install the kv demo image and launch a resident agent")
	agent := fs.String("agent", "agent", "name for the resident demo agent")
	timeoutMS := fs.Int("timeout-ms", 0, "default per-request deadline (0 = server default)")
	steps := fs.Uint64("steps", 0, "instruction budget per request (0 = server default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := server.Config{
		DefaultTimeout: time.Duration(*timeoutMS) * time.Millisecond,
		MaxSteps:       *steps,
	}
	if *demo {
		if _, err := server.InstallDemo(s); err != nil {
			return err
		}
	}
	srv := server.New(s, cfg)
	defer srv.Close()
	if *demo {
		// The agent is launched parked — crt0/ldl start-up only, main never
		// runs — so its exported functions stay callable over /api/call.
		if _, err := srv.Launch(&server.LaunchRequest{Name: *agent, Exe: server.DemoExe}, 0); err != nil {
			return err
		}
		fmt.Fprintf(out, "serve: resident agent %q launched from %s\n", *agent, server.DemoExe)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigs)
	fmt.Fprintf(out, "serve: listening on http://%s (SIGINT/SIGTERM drains and exits)\n", ln.Addr())
	return srv.Run(ln, sigs)
}

// cmdLoad drives synthetic traffic. With -addr it targets a running
// daemon over TCP; without, it boots an in-process server over the disk
// image's world (installing the demo agent) and hammers that — the same
// path the CI smoke run takes.
func cmdLoad(s *hemlock.System, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("load", flag.ContinueOnError)
	addr := fs.String("addr", "", "daemon base URL (e.g. http://127.0.0.1:8080); empty = in-process")
	clients := fs.Int("clients", 8, "concurrent clients")
	requests := fs.Int("requests", 125, "requests per client")
	mixName := fs.String("mix", "mixed", "request mix: launch, call, var, mixed")
	seed := fs.Int64("seed", 1, "base seed for the mix draw")
	agent := fs.String("agent", "agent", "resident program the call/var ops target")
	exe := fs.String("exe", server.DemoExe, "executable the launch ops boot")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mix, err := load.MixByName(*mixName)
	if err != nil {
		return err
	}
	cfg := load.Config{
		Clients: *clients, Requests: *requests, Mix: mix,
		Seed: *seed, Agent: *agent, Exe: *exe,
	}
	var c load.Caller
	if *addr != "" {
		c = load.NewHTTP(*addr, nil)
	} else {
		if _, err := server.InstallDemo(s); err != nil {
			return err
		}
		srv := server.New(s, server.Config{})
		defer srv.Close()
		if _, err := srv.Launch(&server.LaunchRequest{Name: *agent, Exe: *exe}, 0); err != nil {
			return err
		}
		c = load.NewDirect(srv)
	}
	rep, err := load.Run(c, cfg)
	if err != nil {
		return err
	}
	io.WriteString(out, rep.Table())
	if rep.Errors > 0 {
		return fmt.Errorf("load: %d of %d requests failed", rep.Errors, rep.Requests)
	}
	return nil
}

// cmdDoctor runs the self-checks over the disk image's world and prints
// every finding. A critical finding makes the command fail, so scripts
// can gate on the exit status.
func cmdDoctor(s *hemlock.System, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("doctor", flag.ContinueOnError)
	inodeWarn := fs.Float64("inode-warn", 0, "inode fill warn threshold (0 = default)")
	slotWarn := fs.Float64("slot-warn", 0, "segment slot fill warn threshold (0 = default)")
	heapWarn := fs.Float64("heap-warn", 0, "shalloc heap fill warn threshold (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opt := doctor.Options{InodeWarn: *inodeWarn, SlotWarn: *slotWarn, HeapWarn: *heapWarn}
	findings := doctor.CheckSystem(s, opt)
	if len(findings) == 0 {
		fmt.Fprintln(out, "doctor: no findings — the machine is healthy")
		return nil
	}
	io.WriteString(out, doctor.Render(findings))
	fmt.Fprintf(out, "doctor: %d finding(s), worst %s\n", len(findings), doctor.Worst(findings))
	if doctor.Worst(findings) >= doctor.Critical {
		return fmt.Errorf("doctor: critical findings")
	}
	return nil
}
