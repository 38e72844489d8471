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
// a baseline without the row is compared in raw ns/op.
func TestBenchcheckCalibration(t *testing.T) {
	sh, err := exec.LookPath("sh")
	if err != nil {
		t.Skip("sh is not on PATH")
	}
	for _, tc := range []struct {
		base, cand string
		pass       bool
		mode       string
	}{
		{"bench_base.json", "bench_slow_all.json", true, "comparing ns/op / BenchmarkCalibrate"},
		{"bench_base.json", "bench_slow_dispatch.json", false, "comparing ns/op / BenchmarkCalibrate"},
		{"bench_base_nocal.json", "bench_slow_all.json", false, "comparing raw ns/op"},
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
		if !tc.pass && !hasLine(string(out), "BenchmarkDispatch ", "<< REGRESSION") {
			t.Errorf("%s vs %s: BenchmarkDispatch not flagged:\n%s", tc.base, tc.cand, out)
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
