// Command ssta runs flat statistical static timing analysis on one or more
// circuits and reports the delay distributions. Multiple circuits fan out
// across a bounded worker pool through ssta.AnalyzeBatch. Sequential
// circuits — .bench netlists with DFF lines, or any input wrapped with
// -clocked — additionally report worst setup and hold slack under the
// default clock.
//
// Input selection (one of):
//
//	-bench file.bench   parse an ISCAS85 .bench netlist (DFF lines accepted)
//	-gen c1908          generate topology-matched ISCAS85-like benchmarks
//	                    (comma-separated list for a batch sweep)
//	-c17                use the embedded c17
//	-mult 16            use a structural n x n array multiplier
//
// Usage:
//
//	go run ./cmd/ssta -gen c880 [-seed 1] [-mc 0] [-outputs]
//	go run ./cmd/ssta -gen c432,c880,c1908 -workers 4
//	go run ./cmd/ssta -gen c880 -clocked
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/stats"
	"repro/ssta"
)

func main() {
	benchFile := flag.String("bench", "", "path to a .bench netlist")
	gen := flag.String("gen", "", "ISCAS85 benchmark name(s) to generate, comma-separated")
	useC17 := flag.Bool("c17", false, "use the embedded c17")
	mult := flag.Int("mult", 0, "width of a structural array multiplier")
	seed := flag.Int64("seed", 1, "generator seed")
	mcIters := flag.Int("mc", 0, "also run Monte Carlo with this many iterations")
	clocked := flag.Bool("clocked", false, "register the circuit boundary (launch/capture DFFs) and report setup/hold slack")
	perOutput := flag.Bool("outputs", false, "print per-output arrival statistics")
	workers := flag.Int("workers", 0, "concurrent analyses in a batch (0: all cores)")
	scenarios := flag.String("scenarios", "", "MCMM sweep: JSON scenario array (inline or @file) evaluated against the circuit with shared prep")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	// Profiles are flushed through stopProfiles so they survive both the
	// normal return and the fatal()/exit error paths (os.Exit skips defers).
	startProfiles(*cpuProfile, *memProfile)
	defer stopProfiles()

	flow := ssta.DefaultFlow()
	var items []ssta.BatchItem
	switch {
	case *benchFile != "":
		f, ferr := os.Open(*benchFile)
		fatal(ferr)
		defer f.Close()
		c, cerr := ssta.ParseBench(*benchFile, f)
		fatal(cerr)
		if *clocked {
			c, cerr = ssta.Clocked(c)
			fatal(cerr)
		}
		items = append(items, ssta.BatchItem{Name: *benchFile, Circuit: c})
	case *gen != "":
		for _, name := range ssta.ParseNameList(*gen) {
			if *clocked {
				spec, ok := ssta.SpecByName(name)
				if !ok {
					fatal(fmt.Errorf("unknown benchmark %q", name))
				}
				c, cerr := ssta.GenerateClocked(spec, *seed)
				fatal(cerr)
				items = append(items, ssta.BatchItem{Name: name, Circuit: c})
				continue
			}
			items = append(items, ssta.BatchItem{Bench: name, Seed: *seed})
		}
	case *mult > 0:
		c, merr := ssta.ArrayMultiplier(*mult)
		fatal(merr)
		if *clocked {
			c, merr = ssta.Clocked(c)
			fatal(merr)
		}
		items = append(items, ssta.BatchItem{Circuit: c})
	case *useC17:
		c := ssta.C17()
		if *clocked {
			var cerr error
			c, cerr = ssta.Clocked(c)
			fatal(cerr)
		}
		items = append(items, ssta.BatchItem{Name: "c17", Circuit: c})
	default:
		fmt.Fprintln(os.Stderr, "select an input: -bench, -gen, -mult or -c17")
		exit(2)
	}
	if len(items) == 0 {
		fmt.Fprintln(os.Stderr, "no circuits named; select an input: -bench, -gen, -mult or -c17")
		exit(2)
	}

	results := flow.AnalyzeBatch(items, ssta.BatchOptions{Workers: *workers})

	if len(results) > 1 {
		if *mcIters > 0 || *perOutput || *scenarios != "" {
			fmt.Fprintln(os.Stderr, "note: -mc, -outputs and -scenarios apply to single-circuit runs only; ignored for the batch sweep")
		}
		// Batch sweep: one summary line per circuit. Sequential batches get
		// two extra columns with the worst setup/hold slack means.
		anySeq := false
		for _, r := range results {
			if r.Seq != nil {
				anySeq = true
				break
			}
		}
		fmt.Printf("%-10s %8s %8s %10s %9s %12s", "circuit", "verts", "edges", "mean(ps)", "std(ps)", "99.87%(ps)")
		if anySeq {
			fmt.Printf(" %10s %10s", "setup(ps)", "hold(ps)")
		}
		fmt.Printf(" %9s\n", "t(ms)")
		for _, r := range results {
			if r.Err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", r.Name, r.Err)
				exit(1)
			}
			fmt.Printf("%-10s %8d %8d %10.2f %9.2f %12.2f",
				r.Name, r.Graph.NumVerts, len(r.Graph.Edges),
				r.Delay.Mean(), r.Delay.Std(), r.Delay.Quantile(0.99865))
			if anySeq {
				if r.Seq != nil {
					fmt.Printf(" %10.2f %10.2f", r.Seq.WorstSetup.Mean(), r.Seq.WorstHold.Mean())
				} else {
					fmt.Printf(" %10s %10s", "-", "-")
				}
			}
			fmt.Printf(" %9.1f\n", float64(r.Elapsed.Microseconds())/1000)
		}
		return
	}

	r := results[0]
	fatal(r.Err)
	g, delay := r.Graph, r.Delay
	fmt.Printf("circuit %s: %d vertices, %d edges, %d inputs, %d outputs\n",
		r.Name, g.NumVerts, len(g.Edges), len(g.Inputs), len(g.Outputs))
	fmt.Printf("\nstatistical circuit delay: mean %.2f ps, std %.2f ps\n", delay.Mean(), delay.Std())
	for _, p := range []float64{0.01, 0.5, 0.95, 0.99, 0.9987} {
		fmt.Printf("  %6.2f%% yield at %8.2f ps\n", 100*p, delay.Quantile(p))
	}

	if r.Seq != nil {
		seq := r.Seq
		fmt.Printf("\nsequential: %d registers, clock %.0f ps (skew %.0f ps, jitter %.0f ps)\n",
			len(seq.Regs), seq.Clock.PeriodPS, seq.Clock.SkewPS, seq.Clock.JitterPS)
		fmt.Printf("  worst setup slack: mean %8.2f ps, std %6.2f ps, 0.13%% tail %8.2f ps\n",
			seq.WorstSetup.Mean(), seq.WorstSetup.Std(), seq.WorstSetup.Quantile(0.00135))
		fmt.Printf("  worst hold slack:  mean %8.2f ps, std %6.2f ps, 0.13%% tail %8.2f ps\n",
			seq.WorstHold.Mean(), seq.WorstHold.Std(), seq.WorstHold.Quantile(0.00135))
	}

	if *scenarios != "" {
		runSweep(g, *scenarios, *workers)
	}

	if *perOutput {
		p := g.AcquirePass()
		fatal(p.Arrivals(g.Inputs...))
		fmt.Printf("\n%-16s %10s %9s\n", "output", "mean(ps)", "std(ps)")
		for k, o := range g.Outputs {
			if !p.Reached(o) {
				fmt.Printf("%-16s %10s %9s\n", g.OutputNames[k], "unreach", "-")
				continue
			}
			fmt.Printf("%-16s %10.2f %9.2f\n", g.OutputNames[k], p.At(o).Nominal(), p.At(o).Std())
		}
		p.Release()
	}

	if *mcIters > 0 {
		samples, err := ssta.MaxDelaySamples(g, ssta.MCConfig{Samples: *mcIters, Seed: *seed, Workers: *workers})
		fatal(err)
		s := stats.Summarize(samples)
		fmt.Printf("\nMonte Carlo (%d iters): mean %.2f ps, std %.2f ps (SSTA error: mean %+.2f%%, std %+.2f%%)\n",
			*mcIters, s.Mean, s.Std,
			100*(delay.Mean()-s.Mean)/s.Mean, 100*(delay.Std()-s.Std)/s.Std)
	}
}

// runSweep evaluates a -scenarios JSON set against the circuit with shared
// prep and prints the per-scenario table, envelope and divergence ranking.
func runSweep(g *ssta.Graph, flagValue string, workers int) {
	scens, err := ssta.ParseScenariosFlag(flagValue)
	fatal(err)
	rep, err := ssta.SweepAnalyzeGraph(context.Background(), g, scens, ssta.SweepOptions{Workers: workers})
	fatal(err)
	fmt.Printf("\nMCMM sweep: %d scenarios (%d completed) in %.1f ms\n",
		len(rep.Results), rep.Completed, float64(rep.Elapsed.Microseconds())/1000)
	// Sequential subjects carry per-scenario worst setup/hold slack means
	// under each scenario's clock; combinational sweeps omit the columns.
	anySeq := false
	for _, r := range rep.Results {
		if r.SetupSlack != nil {
			anySeq = true
			break
		}
	}
	fmt.Printf("%-16s %10s %9s %12s", "scenario", "mean(ps)", "std(ps)", "99.87%(ps)")
	if anySeq {
		fmt.Printf(" %10s %10s", "setup(ps)", "hold(ps)")
	}
	fmt.Printf(" %9s\n", "t(ms)")
	for _, r := range rep.Results {
		if r.Err != nil {
			fmt.Printf("%-16s %s\n", r.Name, r.Err)
			continue
		}
		fmt.Printf("%-16s %10.2f %9.2f %12.2f", r.Name, r.Mean, r.Std, r.Quantile)
		if anySeq {
			if r.SetupSlack != nil && r.HoldSlack != nil {
				fmt.Printf(" %10.2f %10.2f", r.SetupSlack.Mean, r.HoldSlack.Mean)
			} else {
				fmt.Printf(" %10s %10s", "-", "-")
			}
		}
		fmt.Printf(" %9.1f\n", float64(r.Elapsed.Microseconds())/1000)
	}
	fmt.Printf("%-16s %10.2f %9.2f %12.2f   (worst: %s)\n",
		"envelope", rep.Envelope.Mean, rep.Envelope.Std, rep.Envelope.Quantile, rep.Envelope.Worst)
	if len(rep.TopDivergent) > 0 {
		// The ranking baseline is the first *completed* scenario (the
		// report skips failed ones), so label it accordingly.
		base := ""
		for _, r := range rep.Results {
			if r.Err == nil {
				base = r.Name
				break
			}
		}
		fmt.Printf("top divergent vs %s:", base)
		for _, dv := range rep.TopDivergent {
			fmt.Printf(" %s (%.2f ps)", dv.Name, dv.Score)
		}
		fmt.Println()
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}
}

// exit flushes any active profiles before terminating, so -cpuprofile and
// -memprofile produce usable output even when a run fails.
func exit(code int) {
	stopProfiles()
	os.Exit(code)
}

var profileStop []func()

func startProfiles(cpuPath, memPath string) {
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		fatal(err)
		fatal(pprof.StartCPUProfile(f))
		profileStop = append(profileStop, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if memPath != "" {
		profileStop = append(profileStop, func() {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects so the heap profile is meaningful
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		})
	}
}

func stopProfiles() {
	stops := profileStop
	profileStop = nil // idempotent: defer + exit both call this
	for _, stop := range stops {
		stop()
	}
}
