package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs each workload for a few dozen ops with every
// output check on, untraced and then traced, and runs its final checks.
func TestWorkloadsSmoke(t *testing.T) {
	names := make([]string, 0, len(specs))
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			w, err := specs[name].setup(7)
			if err != nil {
				t.Fatal(err)
			}
			defer w.close()
			const ops = 40
			for i := 0; i < ops; i++ {
				for c := 0; c < w.clients(); c++ {
					w.prepare(c)
					if err := w.op(c, nil); err != nil {
						t.Fatalf("op %d client %d: %v", i, c, err)
					}
					if err := w.check(c); err != nil {
						t.Fatalf("op %d client %d: %v", i, c, err)
					}
				}
			}

			ph := &phase{before: w.counters()}
			for c := 0; c < w.clients(); c++ {
				ph.recs = append(ph.recs, newRecorder(c, time.Now(), ops))
			}
			for i := 0; i < ops; i++ {
				for c, rec := range ph.recs {
					w.prepare(c)
					rec.beginOp(uint64(i))
					err := w.op(c, rec)
					rec.endOp()
					if err == nil {
						err = w.check(c)
					}
					if err != nil {
						t.Fatalf("traced op %d client %d: %v", i, c, err)
					}
					ph.ops++
				}
			}
			ph.after = w.counters()
			ph.trace = summarize(ph.recs)
			if cov := ph.trace.coveragePct(); cov < 90 {
				t.Errorf("child spans cover %.1f%% of op wall time, want >= 90%%", cov)
			}
			m := map[string]float64{}
			w.layers(ph, m)
			listed := map[string]bool{}
			for _, mt := range perLayer {
				listed[mt.name] = true
			}
			for k := range m {
				if !listed[k] {
					t.Errorf("metric %q is not in the per-layer list", k)
				}
			}
			if err := writeChrome(t.TempDir()+"/trace.json", ph.recs); err != nil {
				t.Fatal(err)
			}
			if err := w.finish(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSeedDeterminesInputs: one seed always builds the same catalog and
// popularity ranking; another seed builds a different one.
func TestSeedDeterminesInputs(t *testing.T) {
	boot := func(seed int64) *launchBench {
		w, err := setupLaunch(seed)
		if err != nil {
			t.Fatal(err)
		}
		return w.(*launchBench)
	}
	a, b, c := boot(3), boot(3), boot(4)
	if !reflect.DeepEqual(a.progs, b.progs) || !reflect.DeepEqual(a.rank, b.rank) {
		t.Error("seed 3 built two different catalogs")
	}
	if reflect.DeepEqual(a.progs, c.progs) {
		t.Error("seeds 3 and 4 built the same catalog")
	}
}

// TestBenchmarkJSONListsMetrics: BENCHMARK.json names exactly the metrics
// perfbench prints, with the same units.
func TestBenchmarkJSONListsMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, perfbench %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), perfbench %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", cfg.EndToEnd, endToEnd)
	same("per_layer", cfg.PerLayer, perLayer)
	for _, wl := range cfg.Workload {
		if _, ok := specs[wl.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no set-up in perfbench", wl.Name)
		}
	}
	if len(cfg.Workload) != len(specs) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench has %d", len(cfg.Workload), len(specs))
	}
}
