package hemlock_test

import (
	"errors"
	"os/exec"
	"strings"
	"testing"
)

// TestBenchcheckCalibration runs scripts/benchcheck.sh on the fixture
// files in scripts/testdata. When both files carry BenchmarkCalibrate the
// cross-file gate compares ns/op divided by it, so a host 30% slower on
// every row passes while Dispatch 30% slower at equal calibration fails;
// a baseline without the row is compared in raw ns/op. Each run prints
// both files' go_loc and its change, or names the file without it, and
// neither a larger count nor a missing one fails the gate. The allocation
// gate fails a candidate whose BenchmarkNetShmScale/fleet=64 allocs/op
// exceed the baseline's by more than the threshold, passes one with
// fewer, and is skipped, saying so, when a file lacks the field.
func TestBenchcheckCalibration(t *testing.T) {
	sh, err := exec.LookPath("sh")
	if err != nil {
		t.Skip("sh is not on PATH")
	}
	const (
		allocRow     = "BenchmarkNetShmScale/fleet=64 "
		allocSkipped = "benchcheck: BenchmarkNetShmScale/fleet=64 allocs_per_op not in both files"
	)
	for _, tc := range []struct {
		base, cand string
		pass       bool
		mode, loc  string
		alloc      string // the allocation gate's line
		flagged    string // the line marked as a regression, when the gate fails
	}{
		{"bench_base.json", "bench_slow_all.json", true, "comparing ns/op / BenchmarkCalibrate", "go_loc: 25783 -> 25900 (+117)", allocSkipped, ""},
		{"bench_base.json", "bench_slow_dispatch.json", false, "comparing ns/op / BenchmarkCalibrate", "go_loc: not in scripts/testdata/bench_slow_dispatch.json", allocSkipped, "BenchmarkDispatch "},
		{"bench_base_nocal.json", "bench_slow_all.json", false, "comparing raw ns/op", "go_loc: 25783 -> 25900 (+117)", allocSkipped, "BenchmarkDispatch "},
		{"bench_allocs_base.json", "bench_allocs_more.json", false, "comparing ns/op / BenchmarkCalibrate", "go_loc: 25700 -> 25800 (+100)", allocRow, allocRow},
		{"bench_allocs_more.json", "bench_allocs_base.json", true, "comparing ns/op / BenchmarkCalibrate", "go_loc: 25800 -> 25700 (-100)", allocRow, ""},
		{"bench_base.json", "bench_allocs_more.json", true, "comparing ns/op / BenchmarkCalibrate", "go_loc: 25783 -> 25800 (+17)", allocSkipped, ""},
	} {
		cmd := exec.Command(sh, "scripts/benchcheck.sh", "scripts/testdata/"+tc.base, "scripts/testdata/"+tc.cand, "20")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			t.Fatalf("%s vs %s: %v", tc.base, tc.cand, err)
		}
		if pass := err == nil; pass != tc.pass || !strings.Contains(string(out), tc.mode) {
			t.Errorf("%s vs %s: passed=%v, want %v, and the mode %q:\n%s", tc.base, tc.cand, pass, tc.pass, tc.mode, out)
		}
		for _, line := range []string{tc.loc, tc.alloc} {
			if !hasLine(string(out), line, "") {
				t.Errorf("%s vs %s: no line %q:\n%s", tc.base, tc.cand, line, out)
			}
		}
		if tc.flagged != "" && !hasLine(string(out), tc.flagged, "REGRESSION") {
			t.Errorf("%s vs %s: %snot flagged:\n%s", tc.base, tc.cand, tc.flagged, out)
		}
	}
}

// hasLine reports whether some line of out starts with prefix and
// contains mark.
func hasLine(out, prefix, mark string) bool {
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, prefix) && strings.Contains(l, mark) {
			return true
		}
	}
	return false
}
