// Command benchdiff compares two bgpbench reports (BENCH_SIM.json) and fails
// when the candidate regresses on wall-clock. CI runs it with the committed
// baseline as the reference, so a PR that slows the simulator down beyond the
// threshold fails the build instead of silently eroding the perf budget.
//
//	benchdiff baseline.json candidate.json             # gate at the default 10%
//	benchdiff -threshold 0.05 baseline.json new.json   # tighter gate
//	benchdiff -allocs 0.10 baseline.json new.json      # also gate alloc_bytes
//	benchdiff -strict baseline.json new.json           # missing experiment fails
//	benchdiff BENCH_SIM.quick.json bgpsimd-cache.json  # server cache as candidate
//
// Either argument may also be a bgpsimd persisted cache file
// (-cache-file; schema bgpsimd-cache/v1): cached entries carry the
// wall-clock cost of their original cold miss, which benchdiff groups by
// experiment and sums into wall_ms rows comparable to a workers=1 bgpbench
// report. CI uses this to gate the server's cold-miss cost against the
// committed baselines.
//
// Output is one row per experiment with the wall-clock ratio, signed percent
// delta, and (when either report carries memstats) the allocated-bytes delta,
// a line naming the phases of every experiment that records them (figS's
// construct, grow, run and GC ms), plus a whole-run total_ms comparison. An experiment present in only one
// report is listed as a warning; -strict turns a baseline experiment missing
// from the candidate back into a hard regression. The exit status is 1 when
// any experiment regressed beyond -threshold (or -allocs, when enabled, or a
// -strict missing experiment), or when total_ms itself did, 2 on usage or
// decode errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// reportExperiment is one experiment's record in a report. AllocBytes/Allocs
// are zero in reports from before bgpbench recorded memstats; the alloc gate
// skips such rows rather than comparing against nothing.
type reportExperiment struct {
	ID string `json:"id"`
	// Iters/ItersScale identify how many measure-loop iterations the row's
	// wall-clock covers (zero in reports from before bgpbench stamped them;
	// a zero scale means the pre-scale default of 1). Rows measured at
	// different iteration counts are not wall-clock comparable, so diff
	// warns per experiment on a mismatch.
	Iters      int     `json:"iters"`
	ItersScale int     `json:"iters_scale"`
	WallMS     float64 `json:"wall_ms"`
	AllocBytes uint64  `json:"alloc_bytes"`
	Allocs     uint64  `json:"allocs"`
	// PeakHeap is the sampled peak HeapInuse during the experiment (zero in
	// reports from before bgpbench sampled it). Growth beyond
	// peakHeapWarnFrac warns — a capacity regression candidate — but never
	// gates: the sampler is best-effort and allocator-noise sensitive, so a
	// hard gate would flake.
	PeakHeap uint64 `json:"peak_heap_inuse_bytes"`
	// Phases splits the experiment's wall-clock by layer (figS only; nil
	// elsewhere and in reports from before bgpbench stamped it).
	Phases *phases `json:"phases"`
}

// phases is figS's wall-clock by layer, in ms: world construction, growth,
// the measured runs, and GC CPU time.
type phases struct {
	ConstructMS float64 `json:"construct_ms"`
	GrowMS      float64 `json:"grow_ms"`
	RunMS       float64 `json:"run_ms"`
	GCMS        float64 `json:"gc_ms"`
}

// phaseNames labels phases.values in order.
var phaseNames = [...]string{"construct", "grow", "run", "gc"}

func (p *phases) values() [4]float64 {
	return [4]float64{p.ConstructMS, p.GrowMS, p.RunMS, p.GCMS}
}

// phaseLines describes the phases of every candidate experiment that
// records them, each against the baseline's when it has them too, so a
// wall-clock change names the layer that moved. Phases inform; they never
// gate.
func phaseLines(base, cand *report) []string {
	basePhases := make(map[string]*phases, len(base.Experiments))
	for _, e := range base.Experiments {
		basePhases[e.ID] = e.Phases
	}
	var lines []string
	for _, e := range cand.Experiments {
		if e.Phases == nil {
			continue
		}
		line := e.ID + " phases:"
		cv := e.Phases.values()
		for i, name := range phaseNames {
			b := basePhases[e.ID]
			if b == nil {
				line += fmt.Sprintf(" %s %.1f ms", name, cv[i])
				continue
			}
			bv := b.values()[i]
			line += fmt.Sprintf(" %s %.1f -> %.1f ms", name, bv, cv[i])
			if bv > 0 {
				line += fmt.Sprintf(" (%+.1f%%)", (cv[i]/bv-1)*100)
			}
		}
		lines = append(lines, line)
	}
	return lines
}

// peakHeapWarnFrac is the peak-heap growth fraction beyond which benchdiff
// warns.
const peakHeapWarnFrac = 0.10

// report mirrors the subset of the bgpbench -benchjson schema benchdiff
// needs; unknown fields are ignored so older reports still load.
type report struct {
	GoMaxProcs int  `json:"gomaxprocs"`
	Workers    int  `json:"workers"`
	Quick      bool `json:"quick"`
	// GOGC/GOMemLimit/PGO are the run's effective GC tuning and build
	// profile (zero values in reports from before bgpbench stamped them).
	// Mismatches between baseline and candidate make wall-clock deltas
	// attributable to the runtime configuration rather than the code, so
	// benchdiff warns about them (envWarnings).
	GOGC       int    `json:"gogc"`
	GOMemLimit int64  `json:"gomemlimit"`
	PGO        string `json:"pgo"`
	// ItersScale/NoExtrap are the run's iteration multiplier and whether
	// steady-state extrapolation was disabled (zero values in older reports;
	// a zero ItersScale means the pre-scale default of 1). Either changes
	// what a wall-clock measures, so mismatches warn like the fields above.
	ItersScale  int                `json:"iters_scale"`
	NoExtrap    bool               `json:"noextrap"`
	GitCommit   string             `json:"git_commit"`
	Timestamp   string             `json:"timestamp_utc"`
	TotalMS     float64            `json:"total_ms"`
	Experiments []reportExperiment `json:"experiments"`
}

func (r *report) describe() string {
	s := fmt.Sprintf("gomaxprocs=%d workers=%d", r.GoMaxProcs, r.Workers)
	if r.Quick {
		s += " quick"
	}
	if r.GOGC != 0 {
		s += fmt.Sprintf(" gogc=%d", r.GOGC)
	}
	if r.GOMemLimit != 0 {
		s += " gomemlimit=" + memLimitStr(r.GOMemLimit)
	}
	if r.PGO != "" {
		s += " pgo=" + r.PGO
	}
	if r.ItersScale > 1 {
		s += fmt.Sprintf(" iters-scale=%d", r.ItersScale)
	}
	if r.NoExtrap {
		s += " noextrap"
	}
	if r.GitCommit != "" {
		s += " commit=" + r.GitCommit
	}
	if r.Timestamp != "" {
		s += " at=" + r.Timestamp
	}
	return s
}

// cacheSchema is the schema marker of a bgpsimd persisted cache file
// (internal/serve's -cache-file format); load probes for it so a server
// cache is accepted directly as a report source.
const cacheSchema = "bgpsimd-cache/v1"

// cacheToReport converts a bgpsimd cache file into the report shape: cached
// entries record the wall-clock cost of their original cold miss, so
// grouping by experiment and summing compute_ms yields per-experiment
// wall-clock figures comparable to a workers=1 bgpbench run of the same
// experiments. Entries are unordered in principle, so experiments are
// emitted sorted by ID for deterministic output.
func cacheToReport(blob []byte) (*report, bool) {
	var f struct {
		Schema  string `json:"schema"`
		Entries []struct {
			Experiment string  `json:"experiment"`
			ComputeMS  float64 `json:"compute_ms"`
		} `json:"entries"`
	}
	if json.Unmarshal(blob, &f) != nil || f.Schema != cacheSchema {
		return nil, false
	}
	byExp := make(map[string]float64)
	for _, e := range f.Entries {
		byExp[e.Experiment] += e.ComputeMS
	}
	ids := make([]string, 0, len(byExp))
	for id := range byExp {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	r := &report{Workers: 1} // per-cell costs sum as if computed serially
	for _, id := range ids {
		r.Experiments = append(r.Experiments, reportExperiment{ID: id, WallMS: byExp[id]})
		r.TotalMS += byExp[id]
	}
	return r, true
}

func load(path string) (*report, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if r, ok := cacheToReport(blob); ok {
		return r, nil
	}
	var r report
	if err := json.Unmarshal(blob, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// gate bundles the comparison policy: the wall-clock threshold (a fraction,
// e.g. 0.10), the opt-in allocated-bytes threshold (<= 0 disables the alloc
// gate), and whether a baseline experiment missing from the candidate is a
// hard failure (strict) or a warning.
type gate struct {
	Threshold float64
	Allocs    float64
	Strict    bool
}

// diffRow is one experiment's comparison. Ratio is candidate/baseline
// wall-clock (>1 means slower) and Pct the same delta as a signed percentage
// (+ means slower); the Alloc fields mirror them for allocated bytes when
// both reports carry memstats. Missing marks a baseline experiment the
// candidate did not run.
type diffRow struct {
	ID        string
	BaseMS    float64
	CandMS    float64
	Ratio     float64
	Pct       float64
	BaseAlloc uint64
	CandAlloc uint64
	AllocPct  float64
	HasAlloc  bool
	Missing   bool
	Regressed bool
	AllocBad  bool
}

// diff matches experiments by ID in baseline order and applies the gate.
// Experiments present in only one report become warnings: a baseline
// experiment the candidate lacks regresses only under g.Strict, and
// candidate-only experiments are appended informationally and never gate.
func diff(base, cand *report, g gate) (rows []diffRow, warnings []string, regressed bool) {
	candExp := make(map[string]reportExperiment, len(cand.Experiments))
	for _, e := range cand.Experiments {
		candExp[e.ID] = e
	}
	seen := make(map[string]bool, len(base.Experiments))
	for _, e := range base.Experiments {
		seen[e.ID] = true
		row := diffRow{ID: e.ID, BaseMS: e.WallMS, BaseAlloc: e.AllocBytes}
		if c, ok := candExp[e.ID]; ok {
			row.CandMS = c.WallMS
			row.CandAlloc = c.AllocBytes
			if e.WallMS > 0 {
				row.Ratio = c.WallMS / e.WallMS
				row.Pct = (row.Ratio - 1) * 100
			}
			row.Regressed = row.Ratio > 1+g.Threshold
			if e.AllocBytes > 0 && c.AllocBytes > 0 {
				row.HasAlloc = true
				row.AllocPct = (float64(c.AllocBytes)/float64(e.AllocBytes) - 1) * 100
				if g.Allocs > 0 {
					row.AllocBad = float64(c.AllocBytes) > float64(e.AllocBytes)*(1+g.Allocs)
				}
			}
			if e.Iters > 0 && c.Iters > 0 && e.Iters != c.Iters {
				warnings = append(warnings, fmt.Sprintf(
					"%s: iteration count differs: baseline measured %d iters, candidate %d; wall-clocks cover different amounts of work",
					e.ID, e.Iters, c.Iters))
			}
			if itersScaleOf(e.ItersScale) != itersScaleOf(c.ItersScale) {
				warnings = append(warnings, fmt.Sprintf(
					"%s: iters-scale differs: baseline ran at %dx, candidate at %dx; wall-clocks cover different amounts of work",
					e.ID, itersScaleOf(e.ItersScale), itersScaleOf(c.ItersScale)))
			}
			if e.PeakHeap > 0 && c.PeakHeap > 0 &&
				float64(c.PeakHeap) > float64(e.PeakHeap)*(1+peakHeapWarnFrac) {
				warnings = append(warnings, fmt.Sprintf(
					"%s: peak heap grew %s -> %s (%+.1f%%, > +%.0f%%); capacity regression candidate",
					e.ID, mb(e.PeakHeap), mb(c.PeakHeap),
					(float64(c.PeakHeap)/float64(e.PeakHeap)-1)*100, peakHeapWarnFrac*100))
			}
		} else {
			row.Missing = true
			if g.Strict {
				row.Regressed = true
			} else {
				warnings = append(warnings, fmt.Sprintf("%s: in baseline only (candidate did not run it)", e.ID))
			}
		}
		regressed = regressed || row.Regressed || row.AllocBad
		rows = append(rows, row)
	}
	for _, e := range cand.Experiments {
		if !seen[e.ID] {
			rows = append(rows, diffRow{ID: e.ID, CandMS: e.WallMS, CandAlloc: e.AllocBytes})
			warnings = append(warnings, fmt.Sprintf("%s: in candidate only (no baseline to compare)", e.ID))
		}
	}
	return rows, warnings, regressed
}

// itersScaleOf normalizes a stored iters_scale: reports from before the
// field (and runs that left the flag at its default) mean a 1x multiplier.
func itersScaleOf(v int) int {
	if v <= 0 {
		return 1
	}
	return v
}

// memLimitStr renders a GOMEMLIMIT value ("off" for Go's no-limit marker).
func memLimitStr(v int64) string {
	if v == math.MaxInt64 {
		return "off"
	}
	return fmt.Sprintf("%d", v)
}

// envWarnings reports runtime-configuration mismatches between the two
// reports: different effective GOGC, different GOMEMLIMIT, or one side
// built with PGO and the other not (or with a different profile). Any of
// these shifts wall-clock and memstats for reasons that have nothing to do
// with the code under comparison, so the diff is flagged as apples-to-
// oranges — a warning, not a gate, because re-baselining after an
// intentional tuning change is legitimate. A zero GOGC/GOMEMLIMIT means the
// report predates the field and cannot be judged.
func envWarnings(base, cand *report) []string {
	var warns []string
	if base.GOGC != 0 && cand.GOGC != 0 && base.GOGC != cand.GOGC {
		warns = append(warns, fmt.Sprintf(
			"gogc differs: baseline ran with gogc=%d, candidate with gogc=%d; wall-clock and alloc deltas reflect GC tuning, not code",
			base.GOGC, cand.GOGC))
	}
	if base.GOMemLimit != 0 && cand.GOMemLimit != 0 && base.GOMemLimit != cand.GOMemLimit {
		warns = append(warns, fmt.Sprintf(
			"gomemlimit differs: baseline ran with gomemlimit=%s, candidate with gomemlimit=%s; wall-clock and alloc deltas reflect GC tuning, not code",
			memLimitStr(base.GOMemLimit), memLimitStr(cand.GOMemLimit)))
	}
	if base.PGO != cand.PGO {
		describe := func(p string) string {
			if p == "" {
				return "without PGO"
			}
			return "with PGO profile " + p
		}
		warns = append(warns, fmt.Sprintf(
			"PGO differs: baseline built %s, candidate %s; compare same-profile builds",
			describe(base.PGO), describe(cand.PGO)))
	}
	if itersScaleOf(base.ItersScale) != itersScaleOf(cand.ItersScale) {
		warns = append(warns, fmt.Sprintf(
			"iters-scale differs: baseline ran at %dx iterations, candidate at %dx; wall-clocks cover different amounts of work",
			itersScaleOf(base.ItersScale), itersScaleOf(cand.ItersScale)))
	}
	if base.NoExtrap != cand.NoExtrap {
		warns = append(warns, fmt.Sprintf(
			"extrapolation differs: baseline noextrap=%t, candidate noextrap=%t; wall-clock deltas reflect the measure-loop vehicle, not code",
			base.NoExtrap, cand.NoExtrap))
	}
	return warns
}

// totalDelta compares the reports' whole-run wall-clock. ok is false when
// either report predates the total_ms field (zero), in which case the total
// never gates. Otherwise pct is the signed percent delta (+ means slower) and
// regressed applies the same threshold the per-experiment gate uses.
func totalDelta(base, cand *report, threshold float64) (pct float64, regressed, ok bool) {
	if base.TotalMS <= 0 || cand.TotalMS <= 0 {
		return 0, false, false
	}
	ratio := cand.TotalMS / base.TotalMS
	return (ratio - 1) * 100, ratio > 1+threshold, true
}

// mb renders an allocated-byte count for the table.
func mb(n uint64) string { return fmt.Sprintf("%.1fMB", float64(n)/(1<<20)) }

func main() {
	threshold := flag.Float64("threshold", 0.10, "regression gate: fail when an experiment's wall-clock grows by more than this fraction")
	allocs := flag.Float64("allocs", 0, "opt-in alloc gate: fail when an experiment's alloc_bytes grows by more than this fraction (0 disables)")
	strict := flag.Bool("strict", false, "treat a baseline experiment missing from the candidate as a regression instead of a warning")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: benchdiff [-threshold frac] [-allocs frac] [-strict] baseline.json candidate.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	base, err := load(flag.Arg(0))
	if err == nil {
		var cand *report
		cand, err = load(flag.Arg(1))
		if err == nil {
			os.Exit(run(os.Stdout, base, cand, gate{Threshold: *threshold, Allocs: *allocs, Strict: *strict}))
		}
	}
	fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
	os.Exit(2)
}

// run prints the comparison and returns the process exit code.
func run(w *os.File, base, cand *report, g gate) int {
	fmt.Fprintf(w, "baseline:  %s\ncandidate: %s\n\n", base.describe(), cand.describe())
	rows, warnings, regressed := diff(base, cand, g)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "experiment\tbaseline ms\tcandidate ms\tratio\tdelta\tallocs\t")
	for _, r := range rows {
		alloc := "-"
		if r.HasAlloc {
			alloc = fmt.Sprintf("%s -> %s (%+.1f%%)", mb(r.BaseAlloc), mb(r.CandAlloc), r.AllocPct)
		}
		switch {
		case r.Missing:
			verdict := "WARNING: missing"
			if r.Regressed {
				verdict = "MISSING"
			}
			fmt.Fprintf(tw, "%s\t%.1f\t-\t-\t-\t-\t%s\n", r.ID, r.BaseMS, verdict)
		case r.BaseMS == 0:
			fmt.Fprintf(tw, "%s\t-\t%.1f\t-\t-\t-\tnew\n", r.ID, r.CandMS)
		default:
			verdict := "ok"
			switch {
			case r.Regressed:
				verdict = fmt.Sprintf("REGRESSED (> +%.0f%%)", g.Threshold*100)
			case r.AllocBad:
				verdict = fmt.Sprintf("ALLOC REGRESSED (> +%.0f%%)", g.Allocs*100)
			case r.Ratio < 1:
				verdict = fmt.Sprintf("%.2fx faster", 1/r.Ratio)
			}
			fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.3f\t%+.1f%%\t%s\t%s\n", r.ID, r.BaseMS, r.CandMS, r.Ratio, r.Pct, alloc, verdict)
		}
	}
	tw.Flush()
	for _, line := range phaseLines(base, cand) {
		fmt.Fprintln(w, line)
	}
	for _, warn := range append(envWarnings(base, cand), warnings...) {
		fmt.Fprintf(w, "warning: %s\n", warn)
	}
	if pct, totalRegressed, ok := totalDelta(base, cand, g.Threshold); ok {
		fmt.Fprintf(w, "\ntotal: %.1f ms -> %.1f ms (%.3fx, %+.1f%%)\n",
			base.TotalMS, cand.TotalMS, cand.TotalMS/base.TotalMS, pct)
		regressed = regressed || totalRegressed
	}
	if regressed {
		fmt.Fprintf(w, "\nFAIL: regression beyond threshold\n")
		return 1
	}
	return 0
}
