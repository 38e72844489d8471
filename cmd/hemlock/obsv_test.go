package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// buildDemo assembles and links the shared-counter demo into /bin/demo.
func buildDemo(t *testing.T, dir string) {
	t.Helper()
	cli(t, dir, "mkfs")
	shared := writeHostFile(t, dir, "shared.s", cliSharedSrc)
	mainS := writeHostFile(t, dir, "main.s", cliMainSrc)
	cli(t, dir, "cp", shared, "/src/shared.s")
	cli(t, dir, "cp", mainS, "/src/main.s")
	cli(t, dir, "as", "/src/shared.s", "/lib/shared.o")
	cli(t, dir, "as", "/src/main.s", "/bin/main.o")
	cli(t, dir, "lds", "-o", "/bin/demo", "-C", "/bin", "-default", "/lib",
		"sp:main.o", "dpub:shared.o")
}

func TestCLITraceJSONL(t *testing.T) {
	dir := t.TempDir()
	buildDemo(t, dir)
	trace := filepath.Join(dir, "out.jsonl")
	out := cli(t, dir, "-trace", trace, "run", "/bin/demo")
	if !strings.Contains(out, "[exit 1]") {
		t.Fatalf("run under -trace: %q", out)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 5 {
		t.Fatalf("trace has only %d events:\n%s", len(lines), data)
	}
	subsys := map[string]bool{}
	for _, line := range lines {
		var e struct {
			TS     int64  `json:"ts"`
			Subsys string `json:"subsys"`
			Name   string `json:"name"`
			Ph     string `json:"ph"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if e.Subsys == "" || e.Name == "" || e.Ph == "" {
			t.Fatalf("trace line missing fields: %q", line)
		}
		subsys[e.Subsys] = true
	}
	// The acceptance bar: events from at least three subsystems.
	for _, want := range []string{"kern", "addrspace", "ldl"} {
		if !subsys[want] {
			t.Fatalf("trace covers %v, missing %q", subsys, want)
		}
	}
}

func TestCLITraceChromeFormat(t *testing.T) {
	dir := t.TempDir()
	buildDemo(t, dir)
	trace := filepath.Join(dir, "out.json")
	cli(t, dir, "-trace", trace, "run", "/bin/demo")
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string `json:"name"`
		Cat  string `json:"cat"`
		Ph   string `json:"ph"`
		PID  int    `json:"pid"`
	}
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v\n%s", err, data)
	}
	if len(events) < 5 {
		t.Fatalf("only %d trace events", len(events))
	}
	cats := map[string]bool{}
	for _, e := range events {
		cats[e.Cat] = true
	}
	if !cats["kern"] || !cats["ldl"] {
		t.Fatalf("chrome trace categories %v missing kern/ldl", cats)
	}
}

func TestCLIStats(t *testing.T) {
	dir := t.TempDir()
	buildDemo(t, dir)
	out := cli(t, dir, "stats", "/bin/demo")
	for _, want := range []string{"counters:", "kern.syscalls", "ldl.modules_mapped", "mem.frames_live", "gauges:",
		"vm.tlb_hit", "vm.tlb_miss",
		"vm.block_build", "vm.block_hit", "vm.block_invalidate", "vm.fused_ops"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats output missing %q:\n%s", want, out)
		}
	}
	// The counter values line up with what the run actually did: one
	// module mapped.
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 2 && f[0] == "ldl.modules_mapped" && f[1] != "1" {
			t.Fatalf("ldl.modules_mapped = %s, want 1", f[1])
		}
	}
}

func TestCLIStatsJSON(t *testing.T) {
	dir := t.TempDir()
	buildDemo(t, dir)
	out := cli(t, dir, "stats", "-json", "/bin/demo")
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
		Gauges   map[string]int64  `json:"gauges"`
	}
	if err := json.Unmarshal([]byte(out), &snap); err != nil {
		t.Fatalf("stats -json is not JSON: %v\n%s", err, out)
	}
	if snap.Counters["ldl.modules_mapped"] != 1 {
		t.Fatalf("ldl.modules_mapped = %d, want 1", snap.Counters["ldl.modules_mapped"])
	}
	if snap.Counters["kern.syscalls"] == 0 {
		t.Fatal("kern.syscalls = 0")
	}
	// Golden block-engine assertions: the demo decodes blocks and executes
	// fused LUI-pair macro-ops (the `la` pseudo-op expands to lui/ori,
	// which the engine fuses). block_hit stays 0 here — every block of a
	// run-once program is entered exactly once; the vm unit tests pin hits
	// and chaining with loops.
	for _, name := range []string{"vm.block_build", "vm.fused_ops"} {
		if snap.Counters[name] == 0 {
			t.Fatalf("%s = 0: %v", name, snap.Counters)
		}
	}
	if _, ok := snap.Gauges["mem.frames_live"]; !ok {
		t.Fatalf("no mem gauges in snapshot: %v", snap.Gauges)
	}
}
