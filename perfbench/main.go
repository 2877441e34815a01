// Command perfbench is the repository's benchmark. One run sets up and
// exercises every layer — the schedule builder (mesh, DAG family,
// partition, priorities, kernel, metrics, audit), the four sweep
// executors (serial, goroutine, fault-tolerant, multi-process) and the
// sweepschedd daemon — giving the named workload the time budget and the
// other phases a fixed operation count, and checks every output. See
// README.md for the workloads and the metrics.
//
//	perfbench --workload pipeline --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (the end-to-end metrics with --trace 0,
// the per-layer metrics of a traced run with --trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"sweepsched"
)

// output is the final line of a run.
type output struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]outMetric `json:"metrics"`
}

// stamp identifies the machine and build a result came from.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Trace      int    `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Rev        string `json:"rev"`
}

func newStamp(workload string, seed uint64, trace int) stamp {
	return stamp{
		Workload:   workload,
		Seed:       seed,
		Trace:      trace,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Rev:        gitRev(),
	}
}

// cpuModel reads the first model name from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev is the VCS revision the Go toolchain stamped into the binary,
// "unknown" when it was built outside a git checkout.
func gitRev() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

func main() {
	// The multi-process executor re-executes this binary as its workers.
	sweepsched.MaybeProcWorker()

	workload := flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := flag.Uint64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 55, "length of the measured part of the run")
	trace := flag.Int("trace", 0, "1 measures the per-layer metrics in a traced run")
	workdir := flag.String("workdir", ".bench_build", "scratch directory for checkpoint shards")
	flag.Parse()
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	out, err := benchmark(os.Stdout, mkConfig(*seed), *workload, time.Duration(*seconds)*time.Second, *trace == 1, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// benchmark performs one run and writes its stamp and metrics to w, one
// per line, ahead of the result it returns.
func benchmark(w io.Writer, cfg config, workload string, seconds time.Duration, traced bool, workdir string) (*output, error) {
	trace := 0
	if traced {
		trace = 1
	}
	stampLine, err := json.Marshal(newStamp(workload, cfg.seed, trace))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "stamp %s\n", stampLine)
	r := newRun(cfg, traced, workdir, w)
	if err := execute(r, workload, seconds); err != nil {
		return nil, err
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	metrics, err := r.m.emit(defs)
	if err != nil {
		return nil, err
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-34s %14.6g %s\n", d.name, metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(w, "%-34s %14.6g (%d of %d operations)\n", "fail_ratio", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	return &output{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}, nil
}
