// Command bgpsim runs one collective operation on a simulated BG/P partition
// and reports its virtual-time cost, bandwidth, and resource utilization.
//
//	bgpsim -op bcast -algo torus.shaddr -size 2M -torus 8x8x8
//	bgpsim -op allreduce -algo allreduce.current -size 4M -mode smp
//	bgpsim -list
//
// The flags are a reqspec.Request, checked and measured exactly as a
// bgpsimd /v1/run body is: a request either door refuses exits 2 here.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"bgpcoll/internal/bench"
	"bgpcoll/internal/coll"
	"bgpcoll/internal/mpi"
	"bgpcoll/internal/serve/reqspec"
	"bgpcoll/internal/trace"
)

func main() {
	coll.Register()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// requestFlags returns bgpsim's flag set with one flag per request field,
// each defaulting to reqspec.Defaults() and parsed into q.
func requestFlags(q *reqspec.Request, stderr io.Writer) *flag.FlagSet {
	d := reqspec.Defaults()
	fs := flag.NewFlagSet("bgpsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&q.Op, "op", d.Op, "collective: bcast or allreduce")
	fs.StringVar(&q.Algo, "algo", d.Algo, "algorithm name (empty = automatic selection)")
	fs.StringVar(&q.Size, "size", d.Size, "message size (bytes, K or M suffix)")
	fs.StringVar(&q.Torus, "torus", d.Torus, "torus dimensions DXxDYxDZ")
	fs.StringVar(&q.Mode, "mode", d.Mode, "node mode: smp, dual or quad")
	fs.IntVar(&q.Iters, "iters", d.Iters, "micro-benchmark iterations")
	fs.IntVar(&q.Root, "root", d.Root, "broadcast root rank")
	return fs
}

// run is bgpsim on the given arguments; it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	var q reqspec.Request
	fs := requestFlags(&q, stderr)
	list := fs.Bool("list", false, "list registered algorithms and exit")
	traceN := fs.Int("trace", 0, "record and dump up to N schedule events")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *list {
		fmt.Fprintln(stdout, "broadcast algorithms:")
		for _, n := range reqspec.BcastAlgorithms() {
			fmt.Fprintln(stdout, "  ", n)
		}
		fmt.Fprintln(stdout, "allreduce algorithms:")
		for _, n := range reqspec.AllreduceAlgorithms() {
			fmt.Fprintln(stdout, "  ", n)
		}
		return 0
	}

	c, err := q.Cell()
	if err != nil {
		fmt.Fprintln(stderr, "bgpsim:", err)
		return 2
	}
	w, err := mpi.NewWorld(c.Cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bgpsim:", err)
		return 1
	}
	if *traceN > 0 {
		w.M.Trace = trace.New(*traceN)
	}
	elapsed, err := c.RunOn(w, bench.RunMode{})
	if err != nil {
		fmt.Fprintln(stderr, "bgpsim:", err)
		return 1
	}

	algo := "algorithm: " + q.Algo
	if q.Algo == "" {
		algo = "algorithm: auto"
	}
	fmt.Fprintf(stdout, "partition:  %s torus, %s mode, %d ranks\n", c.Cfg.Torus, c.Cfg.Mode, c.Cfg.Ranks())
	fmt.Fprintf(stdout, "operation:  %s %s, %s\n", q.Op, bench.SizeLabel(c.Bytes()), algo)
	fmt.Fprintf(stdout, "latency:    %v\n", elapsed)
	fmt.Fprintf(stdout, "bandwidth:  %.1f MB/s\n", bench.BandwidthMBs(c.Bytes(), elapsed))
	fmt.Fprintln(stdout)
	// Utilization is busy time over the whole run's virtual duration: every
	// iteration's barrier and collective, not the per-iteration average.
	fmt.Fprint(stdout, w.M.Report(w.M.K.Now()))
	if *traceN > 0 {
		fmt.Fprintln(stdout)
		w.M.Trace.Dump(stdout, *traceN)
	}
	return 0
}
