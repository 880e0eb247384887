// Command bgpbench regenerates the paper's performance study (§VI) on the
// simulated BG/P machine: Figures 6-10 and Table I, printed as text tables.
//
//	bgpbench                     # every figure and table at default scale
//	bgpbench -exp fig10,table1   # a subset
//	bgpbench -racks 2            # torus experiments at full 2-rack scale
//	bgpbench -quick              # trimmed message sweeps for a fast pass
//	bgpbench -iters-scale 32     # 32x the iteration count (extrapolation keeps it cheap)
//	bgpbench -noextrap           # execute every iteration; no steady-state extrapolation
//	bgpbench -par 1              # serial sweep (default: GOMAXPROCS workers)
//	bgpbench -reference          # goroutine reference mode (same virtual times)
//	bgpbench -benchjson BENCH_SIM.json   # record per-figure wall-clock
//	bgpbench -cpuprofile cpu.pprof       # profile the run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	"bgpcoll/internal/bench"
	"bgpcoll/internal/coll"
)

// benchReport is the BENCH_SIM.json schema: one record per run so the perf
// trajectory is comparable across PRs. Every field is a resolved value, not a
// flag as typed: workers is the actual pool width after the 0 = GOMAXPROCS
// default, and ranks/iters are per-experiment because their defaults are
// per-experiment (tree partitions default to 2 racks, torus to a midplane).
// The commit and timestamp make a stored report attributable to a tree state.
type benchReport struct {
	GoMaxProcs int  `json:"gomaxprocs"`
	Workers    int  `json:"workers"`
	Quick      bool `json:"quick"`
	Reference  bool `json:"reference,omitempty"`
	// GOGC and GOMemLimit are the effective GC tuning for the run — whatever
	// -gogc/-gomemlimit or the environment resolved to — so a stored report's
	// wall-clocks and memstats are attributable to a GC configuration.
	// GOMemLimit is math.MaxInt64 when no limit is set (Go's "off" value).
	GOGC       int   `json:"gogc"`
	GOMemLimit int64 `json:"gomemlimit"`
	// ItersScale multiplies every experiment's iteration count (1 = the
	// per-experiment defaults as published); NoExtrap disables steady-state
	// iteration extrapolation so every iteration executes. Both change what
	// a wall-clock means, so benchdiff warns on cross-setting comparisons.
	ItersScale int  `json:"iters_scale,omitempty"`
	NoExtrap   bool `json:"noextrap,omitempty"`
	// PGO is the profile the binary was built with ("" for a non-PGO
	// build), so benchdiff can refuse to read a PGO-vs-plain comparison as
	// a code change.
	PGO         string            `json:"pgo,omitempty"`
	GitCommit   string            `json:"git_commit,omitempty"`
	Timestamp   string            `json:"timestamp_utc"`
	Experiments []experimentTimes `json:"experiments"`
	TotalMS     float64           `json:"total_ms"`
}

// experimentTimes carries one experiment's wall-clock and its runtime
// memstats deltas, measured from after the pre-experiment runtime.GC() to
// the end of the run: bytes and objects allocated, completed GC cycles, and
// the process heap footprint (HeapSys: the peak heap the OS has had to back
// so far — monotone per process, so per-experiment values in one run share a
// high-water mark).
type experimentTimes struct {
	ID    string `json:"id"`
	Ranks int    `json:"ranks"`
	Iters int    `json:"iters"`
	// ItersScale echoes the run's -iters-scale so a stored row's Iters is
	// attributable (Iters already includes the multiplier); ExtrapIters is
	// how many of those iterations were extrapolated instead of executed.
	ItersScale   int     `json:"iters_scale,omitempty"`
	ExtrapIters  int64   `json:"extrapolated_iters,omitempty"`
	WallMS       float64 `json:"wall_ms"`
	AllocBytes   uint64  `json:"alloc_bytes"`
	Allocs       uint64  `json:"allocs"`
	GCCycles     uint32  `json:"gc_cycles"`
	HeapSysBytes uint64  `json:"heap_sys_bytes"`
	// PeakHeapInuseBytes is the highest HeapInuse the sampler observed while
	// the experiment ran. Unlike HeapSys it falls back down with live data,
	// so it attributes footprint to the experiment that caused it — the
	// number a capacity regression moves first.
	PeakHeapInuseBytes uint64 `json:"peak_heap_inuse_bytes"`
	// Phases splits figS's wall-clock by layer (absent on other rows).
	Phases *scalePhases `json:"phases,omitempty"`
}

// scalePhases is where figS's time goes, in ms summed over its points:
// building each fresh world, growing the previous point's world to it
// (the first point's "growth" is its cold build), running the measured
// collectives, and the GC's CPU time over the whole experiment. Growth and
// construction dominate at rack scale, so a capacity change names the phase
// it moved.
type scalePhases struct {
	ConstructMS float64 `json:"construct_ms"`
	GrowMS      float64 `json:"grow_ms"`
	RunMS       float64 `json:"run_ms"`
	GCMS        float64 `json:"gc_ms"`
}

// gcCPUMetric is the runtime's estimate of the CPU time spent in GC work.
const gcCPUMetric = "/cpu/classes/gc/total:cpu-seconds"

// gcCPUSeconds reads gcCPUMetric.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: gcCPUMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// figPhases sums figS's wall-clock series over its points and adds the GC
// CPU time the experiment took.
func figPhases(fig *bench.Figure, gcMS float64) *scalePhases {
	sum := func(label string) float64 {
		for _, s := range fig.Series {
			if s.Label == label {
				t := 0.0
				for _, v := range s.Values {
					t += v
				}
				return t
			}
		}
		return 0
	}
	return &scalePhases{
		ConstructMS: sum(bench.ScaleConstructLabel),
		GrowMS:      sum(bench.ScaleGrowLabel),
		RunMS:       sum(bench.ScaleRunLabel),
		GCMS:        gcMS,
	}
}

// pgoProfile reports the PGO profile path the binary was built with, from
// the embedded build info ("" when built without -pgo or when the binary
// carries no build info, e.g. under `go test`).
func pgoProfile() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, s := range bi.Settings {
		if s.Key == "-pgo" {
			return s.Value
		}
	}
	return ""
}

// gitCommit identifies the working tree for the report, tolerating trees
// without git (an extracted tarball still benchmarks fine).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return ""
	}
	commit := strings.TrimSpace(string(out))
	if dirty, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(dirty) > 0 {
		commit += "-dirty"
	}
	return commit
}

func main() {
	exps := flag.String("exp", "all", "comma-separated experiments: fig6,fig7,fig8,fig9,fig10,table1,figs (rack-scale capacity), ablation.colors, ablation.chunk, ablation.fifo, \"ablations\", or all")
	racks := flag.Int("racks", 0, "racks for partition size (0 = per-experiment default; torus experiments default to a 512-node midplane)")
	iters := flag.Int("iters", 0, "micro-benchmark iterations (0 = per-experiment default)")
	itersScale := flag.Int("iters-scale", 1, "multiply every experiment's iteration count by this factor; steady-state extrapolation keeps the cost near 1x, and the multiplier is stamped into -benchjson")
	noExtrap := flag.Bool("noextrap", false, "disable steady-state iteration extrapolation: execute every measure-loop iteration (virtual times are identical, only wall-clock differs)")
	quick := flag.Bool("quick", false, "trim message-size sweeps")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	par := flag.Int("par", 0, "sweep worker count: cells fan across this many goroutines (0 = GOMAXPROCS, 1 = serial)")
	reference := flag.Bool("reference", false, "run kernels in noProgram reference mode (one goroutine per rank, plans run step by step); virtual times are identical, only wall-clock differs")
	gogc := flag.Int("gogc", 0, "set the GC target percentage for the run (0 = leave GOGC as inherited); the effective value is stamped into -benchjson")
	gomemlimit := flag.Int64("gomemlimit", 0, "set the soft memory limit in bytes for the run (0 = leave GOMEMLIMIT as inherited); the effective value is stamped into -benchjson")
	benchJSON := flag.String("benchjson", "", "write per-experiment wall-clock times to this JSON file (BENCH_SIM.json)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	flag.Parse()

	coll.Register()
	opts := bench.Options{Racks: *racks, Iters: *iters, ItersScale: *itersScale, Quick: *quick, Workers: *par, Reference: *reference, NoExtrap: *noExtrap}

	// Apply GC tuning first, then read back the effective values: the
	// setters return the previous setting, so a set-and-restore probe reports
	// the environment's value when no flag overrides it.
	if *gogc > 0 {
		debug.SetGCPercent(*gogc)
	}
	if *gomemlimit > 0 {
		debug.SetMemoryLimit(*gomemlimit)
	}
	effGOGC := debug.SetGCPercent(100)
	debug.SetGCPercent(effGOGC)
	effMemLimit := debug.SetMemoryLimit(-1)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bgpbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "bgpbench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		want[strings.TrimSpace(strings.ToLower(e))] = true
	}
	workers := *par
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	report := benchReport{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Workers:    workers,
		Quick:      *quick,
		Reference:  *reference,
		ItersScale: *itersScale,
		NoExtrap:   *noExtrap,
		GOGC:       effGOGC,
		GOMemLimit: effMemLimit,
		PGO:        pgoProfile(),
		GitCommit:  gitCommit(),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
	totalStart := time.Now()
	all := append(bench.Experiments(), bench.Ablations()...)
	for _, exp := range all {
		isAblation := strings.HasPrefix(exp.ID, "ablation.")
		selected := want[exp.ID] ||
			(want["all"] && !isAblation) || // "all" = the paper's artifacts
			(want["ablations"] && isAblation)
		if !selected {
			continue
		}
		// Settle the previous experiment's garbage — and drop its pooled
		// worlds — before the timer starts, so each wall-clock and memstats
		// delta attributes GC debt and construction cost to the run that
		// created it.
		bench.DrainWorldPool()
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		// bench.StartHeapSampler joins its goroutine inside Peak, so no
		// sampler outlives the experiment it is attributed to (the leak
		// check lives in bench/heapsampler_test.go).
		sampler := bench.StartHeapSampler()
		extrapBefore := bench.ExtrapolatedIters()
		gcBefore := gcCPUSeconds()
		start := time.Now()
		fig, err := exp.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bgpbench: %s: %v\n", exp.ID, err)
			os.Exit(1)
		}
		wall := time.Since(start)
		peakHeap := sampler.Peak()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		var phases *scalePhases
		if exp.ID == "figs" {
			phases = figPhases(fig, (gcCPUSeconds()-gcBefore)*1e3)
		}
		report.Experiments = append(report.Experiments, experimentTimes{
			ID:                 exp.ID,
			Ranks:              fig.Ranks,
			Iters:              fig.Iters,
			ItersScale:         *itersScale,
			ExtrapIters:        bench.ExtrapolatedIters() - extrapBefore,
			WallMS:             float64(wall.Microseconds()) / 1e3,
			AllocBytes:         after.TotalAlloc - before.TotalAlloc,
			Allocs:             after.Mallocs - before.Mallocs,
			GCCycles:           after.NumGC - before.NumGC,
			HeapSysBytes:       after.HeapSys,
			PeakHeapInuseBytes: peakHeap,
			Phases:             phases,
		})
		if *csv {
			fig.CSV(os.Stdout)
		} else {
			fig.Print(os.Stdout)
			fmt.Printf("[%s regenerated in %v]\n\n", exp.ID, wall.Round(time.Millisecond))
		}
	}
	if len(report.Experiments) == 0 {
		fmt.Fprintf(os.Stderr, "bgpbench: no experiment matched %q\n", *exps)
		os.Exit(2)
	}
	report.TotalMS = float64(time.Since(totalStart).Microseconds()) / 1e3

	if *benchJSON != "" {
		blob, err := json.MarshalIndent(report, "", "  ")
		if err == nil {
			err = os.WriteFile(*benchJSON, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bgpbench: writing %s: %v\n", *benchJSON, err)
			os.Exit(1)
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bgpbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "bgpbench: %v\n", err)
			os.Exit(1)
		}
	}
}
