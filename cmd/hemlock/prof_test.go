package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestCLIProfileLaunch(t *testing.T) {
	dir := t.TempDir()
	buildDemo(t, dir)
	chrome := filepath.Join(dir, "launch.json")
	// A single ~100µs launch can lose a scheduler preemption's worth of
	// wall time to the unattributed bucket, so allow a few attempts: an
	// instrumentation gap would fail every one.
	var out string
	for attempt := 0; ; attempt++ {
		out = cli(t, dir, "-profile", "launch", "-profile-out", chrome, "run", "/bin/demo")
		if !strings.Contains(out, "[exit") {
			t.Fatalf("run under -profile launch: %q", out)
		}
		for _, want := range []string{"launches: 1", "kern.exec", "ldl.start", "self%"} {
			if !strings.Contains(out, want) {
				t.Fatalf("launch profile missing %q:\n%s", want, out)
			}
		}
		// The acceptance bar: >= 95% of launch wall time attributed, OR
		// at most 13µs unattributed. The absolute arm exists because the
		// unattributed bucket has a constant floor — the tracer stamps a
		// timestamp and THEN fans out to three sinks, so every root-level
		// event charges its sink cost (~7-10µs per launch, first-touch
		// allocations included) to launch self time — and since stable
		// linking cut launches to ~100µs that floor alone is ~7-9% of the
		// wall time. A genuinely missing phase span adds its whole
		// duration (the smallest, link.zygote_register, is ≥7µs even on
		// the fastest launches) on top of the floor and fails both arms.
		// Under the race detector the floor itself is 60-100µs (every
		// sink emission is ~10x slower), so the attribution gate is left
		// to the plain run of this same test.
		pct := attribution(t, out)
		unattr := launchTotal(t, out) * time.Duration(1000-int64(pct*10)) / 1000
		if raceEnabled || pct >= 95.0 || unattr <= 13*time.Microsecond {
			break
		}
		if attempt == 4 {
			t.Fatalf("attribution %.1f%% (%v unattributed) on every attempt:\n%s", pct, unattr, out)
		}
	}
	// -profile-out wrote a loadable Chrome trace of the launch spans.
	data, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
	}
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("profile-out is not a JSON array: %v", err)
	}
	names := map[string]bool{}
	for _, e := range events {
		if e.Ph == "B" {
			names[e.Name] = true
		}
	}
	for _, want := range []string{"launch", "exec", "start"} {
		if !names[want] {
			t.Fatalf("chrome profile spans %v missing %q", names, want)
		}
	}
}

// attribution extracts the "attributed: NN.N%" figure from a launch
// profile table.
func attribution(t *testing.T, out string) float64 {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "attributed:") {
			continue
		}
		f := strings.Fields(line)
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[len(f)-1], "%"), 64)
		if err != nil {
			t.Fatalf("bad attribution %q: %v", f[len(f)-1], err)
		}
		return pct
	}
	t.Fatalf("no attributed: line in:\n%s", out)
	return 0
}

// launchTotal extracts the "total: 123.4µs" figure from a launch profile
// table.
func launchTotal(t *testing.T, out string) time.Duration {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		for i := 0; i+1 < len(f); i++ {
			if f[i] == "total:" {
				d, err := time.ParseDuration(f[i+1])
				if err != nil {
					t.Fatalf("bad launch total %q: %v", f[i+1], err)
				}
				return d
			}
		}
	}
	t.Fatalf("no total: figure in:\n%s", out)
	return 0
}

func TestCLIProfileGuest(t *testing.T) {
	dir := t.TempDir()
	buildDemo(t, dir)
	// Attaching a trace sink must not change which executor runs, so the
	// traced run attributes every instruction too.
	for i, global := range [][]string{nil, {"-trace", filepath.Join(dir, "t.jsonl")}} {
		folded := filepath.Join(dir, "out.folded")
		args := append(global, "-profile", "guest", "-profile-out", folded, "run", "/bin/demo")
		out := cli(t, dir, args...)
		if want := "[exit " + strconv.Itoa(i+1) + "]"; !strings.Contains(out, want) {
			t.Fatalf("%v: want %s in %q", args, want, out)
		}
		// The sampler fires at block boundaries, which resolves the demo's
		// 11 instructions down to the symbol that ran them.
		for _, want := range []string{"guest profile: 11 instructions attributed", "main"} {
			if !strings.Contains(out, want) {
				t.Fatalf("%v: guest profile missing %q:\n%s", args, want, out)
			}
		}
		data, err := os.ReadFile(folded)
		if err != nil {
			t.Fatal(err)
		}
		// Folded-stack lines: "module;function count".
		if !strings.Contains(string(data), ";") || !strings.Contains(string(data), "main") {
			t.Fatalf("%v: folded output misses the entry symbol:\n%s", args, data)
		}
	}
}

func TestCLIProfileBadMode(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run([]string{"-img", filepath.Join(dir, "x.img"), "-profile", "cpu", "mkfs"}, &out)
	if err == nil || !strings.Contains(err.Error(), "want launch or guest") {
		t.Fatalf("bad -profile mode: %v", err)
	}
}

func TestCLIFleetTrace(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "fleet.json")
	var out bytes.Buffer
	if err := run([]string{"fleet", "-n", "3", "-rounds", "2", "-loss", "0", "-trace", trace}, &out); err != nil {
		t.Fatalf("hemlock fleet -trace: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "fleet trace:") {
		t.Fatalf("no fleet trace summary:\n%s", out.String())
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var recs []map[string]any
	if err := json.Unmarshal(data, &recs); err != nil {
		t.Fatalf("fleet trace is not a JSON array: %v", err)
	}
	tracks := map[float64]string{}
	phases := map[string]int{}
	for _, r := range recs {
		if r["ph"] == "M" && r["name"] == "process_name" {
			tracks[r["pid"].(float64)] = r["args"].(map[string]any)["name"].(string)
			continue
		}
		if ph, ok := r["ph"].(string); ok {
			phases[ph]++
		}
	}
	// One named track per machine.
	if len(tracks) != 3 {
		t.Fatalf("tracks: %v", tracks)
	}
	for pid, name := range tracks {
		if !strings.HasPrefix(name, "machine") {
			t.Fatalf("track %v named %q", pid, name)
		}
	}
	// Causal arrows: at least one write->apply flow pair made it through.
	if phases["s"] == 0 || phases["f"] == 0 {
		t.Fatalf("no flow events in fleet trace: %v", phases)
	}
}
