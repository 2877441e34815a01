package procrun

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sweepsched/internal/faults"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.txt from the current executor")

// goldenCases are the pinned plans: fault-free, one real kill, and every
// fault kind at once.
var goldenCases = []struct {
	name string
	spec *faults.Spec
	seed uint64
}{
	{"nil", nil, 0},
	{"crash", &faults.Spec{Crashes: 1}, 99},
	{"mixed", &faults.Spec{Crashes: 1, Drops: 2, Delays: 1, Duplicates: 1, Severs: 1}, 1234},
}

// TestProcRunGolden pins the observable accounting of Run on testSpec
// under both interconnects and the three goldenCases plans: the Report
// string, the CommStats and the merged worker snapshot JSON must match
// testdata/golden.txt byte for byte. How the orchestrator groups steps
// into frames is free to change; what a run reports is not. Regenerate
// with `go test ./internal/procrun -run TestProcRunGolden -update-golden`
// only when the accounting itself is meant to change.
func TestProcRunGolden(t *testing.T) {
	spec := testSpec()
	s, cfg := testSetup(t, spec)
	var got strings.Builder
	for _, noBatch := range []bool{false, true} {
		for _, gc := range goldenCases {
			var plan *faults.Plan
			if gc.spec != nil {
				plan = faults.NewPlan(s, *gc.spec, gc.seed)
			}
			c := cfg
			c.NoBatch = noBatch
			res, err := Run(context.Background(), s, spec, c, plan, Options{CkptDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s nobatch=%v: %v", gc.name, noBatch, err)
			}
			fmt.Fprintf(&got, "== %s nobatch=%v\n", gc.name, noBatch)
			fmt.Fprintf(&got, "report: %s\n", res.Report)
			fmt.Fprintf(&got, "comm: %+v\n", res.Comm)
			if err := res.Merged.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
		}
	}
	path := filepath.Join("testdata", "golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("golden mismatch at line %d:\n got: %s\nwant: %s", i+1, g, w)
			}
		}
	}
}
