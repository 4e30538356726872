// Quickstart: run statistical static timing analysis on the embedded c17
// benchmark and print the circuit delay distribution.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/ssta"
)

func main() {
	// The default flow bundles the paper's setup: a synthetic 90nm cell
	// library, process parameters Leff/Tox/Vth with sigmas 15.7%/5.3%/4.4%,
	// 15% load variation, and grid-based spatial correlation (0.92 between
	// neighboring grids decaying to the 0.42 global floor).
	flow := ssta.DefaultFlow()

	// c17: five inputs, two outputs, six NAND gates.
	ckt := ssta.C17()
	g, _, err := flow.Graph(ckt)
	if err != nil {
		log.Fatal(err)
	}

	// The statistical circuit delay is a canonical first-order form:
	// arrival times are propagated with statistical sum and Clark max.
	delay, err := g.MaxDelay()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("c17 delay: mean %.2f ps, sigma %.2f ps\n", delay.Mean(), delay.Std())
	fmt.Printf("  99%% yield point: %.2f ps\n", delay.Quantile(0.99))
	fmt.Printf("  3-sigma corner:  %.2f ps\n", delay.Mean()+3*delay.Std())

	// Per-output arrival times, read straight from a pooled pass arena.
	p := g.AcquirePass()
	defer p.Release()
	if err := p.Arrivals(g.Inputs...); err != nil {
		log.Fatal(err)
	}
	for k, o := range g.Outputs {
		fmt.Printf("  output %-4s mean %.2f ps, sigma %.2f ps\n",
			g.OutputNames[k], p.At(o).Nominal(), p.At(o).Std())
	}

	// Cross-check against Monte Carlo on the same variation model.
	samples, err := ssta.MaxDelaySamples(g, ssta.MCConfig{Samples: 20000, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	var mean float64
	for _, s := range samples {
		mean += s
	}
	mean /= float64(len(samples))
	fmt.Printf("Monte Carlo mean (20k iters): %.2f ps (SSTA error %+.2f%%)\n",
		mean, 100*(delay.Mean()-mean)/mean)
}
