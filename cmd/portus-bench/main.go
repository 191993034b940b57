// Command portus-bench regenerates the paper's evaluation tables and
// figures on the simulated testbed.
//
// Usage:
//
//	portus-bench list              # show available experiment ids
//	portus-bench all               # run everything (slow: includes the 76-model appendix)
//	portus-bench fig11 fig12 ...   # run specific experiments
//	portus-bench paper             # run the paper's core set (tables 1-2, figs 2-16)
package main

import (
	"fmt"
	"os"
	"time"

	"github.com/portus-sys/portus/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "portus-bench: %v\n", err)
		os.Exit(1)
	}
}

// paperSet is the core reproduction set, in the paper's order.
var paperSet = []string{
	"table1", "table2", "fig2", "datapath", "fig9", "fig10",
	"fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return nil
	}
	var ids []string
	switch args[0] {
	case "list":
		for _, e := range experiments.Registry() {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
		}
		return nil
	case "all":
		for _, e := range experiments.Registry() {
			ids = append(ids, e.ID)
		}
	case "paper":
		ids = paperSet
	default:
		ids = args
	}
	for _, id := range ids {
		e, err := experiments.ByID(id)
		if err != nil {
			return err
		}
		start := time.Now()
		tables := e.Run()
		for _, t := range tables {
			fmt.Println(t.String())
		}
		fmt.Printf("[%s finished in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func usage() {
	fmt.Println("usage: portus-bench list | all | paper | <experiment-id>...")
	fmt.Println("run 'portus-bench list' to see experiment ids")
}
