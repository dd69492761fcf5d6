package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark command, so
// TestCountsRepeat can run the traced pass in separate processes.
func TestMain(m *testing.M) {
	if os.Getenv("PERFBENCH_MAIN") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func tracedCounts(t *testing.T, workload string) map[string]float64 {
	t.Helper()
	cmd := exec.Command(os.Args[0], "--workload", workload, "--seed", "7", "--trace", "1",
		"--out", t.TempDir())
	cmd.Env = append(os.Environ(), "PERFBENCH_MAIN=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("traced run of %s: %v\n%s", workload, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("traced run of %s: %v", workload, err)
	}
	counts := map[string]float64{}
	for k, m := range res.Metrics {
		if m.Unit == "count" {
			counts[k] = m.Value
		}
	}
	return counts
}

// TestCountsRepeat runs each workload's traced pass in two processes
// with the same seed and marks every count metric exact or drifting.
// Only an exact count may back a claim about work done. The sweep's
// search counters must repeat exactly: the search is deterministic and
// its memo is filled in the same order. Counters that depend on timing
// or on per-process hash seeds (tautology and arena counts, the serving
// and GC counts) are reported, not asserted. -short checks search-heavy
// alone; the full run takes about four minutes on a 2-CPU host.
func TestCountsRepeat(t *testing.T) {
	names := []string{"espresso-heavy", "search-heavy"}
	if testing.Short() {
		names = []string{"search-heavy"}
	}
	for _, wl := range names {
		t.Run(wl, func(t *testing.T) {
			a, b := tracedCounts(t, wl), tracedCounts(t, wl)
			keys := make([]string, 0, len(a))
			for k := range a {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				mark := "exact"
				if a[k] != b[k] {
					mark = "drifts"
					if strings.HasPrefix(k, "search.") {
						t.Errorf("%s: %v then %v; search counts must repeat exactly", k, a[k], b[k])
					}
				}
				t.Logf("%-34s %-6s %.0f %.0f", k, mark, a[k], b[k])
			}
		})
	}
}
