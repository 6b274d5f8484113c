// pok-cc compiles a MiniC source file to assembly (the toolchain
// companion to pok-asm: the paper's benchmarks are compiled C programs).
//
// Usage:
//
//	pok-cc prog.c                # print generated assembly
//	pok-cc -run prog.c           # compile, assemble and execute
//	pok-cc -sim slice2 prog.c    # compile and run the timing model
package main

import (
	"flag"
	"fmt"
	"os"

	"pok"
	"pok/internal/cc"
)

func main() {
	run := flag.Bool("run", false, "execute the compiled program")
	sim := flag.String("sim", "", "simulate under a config (base, simple2, simple4, slice2, slice4)")
	insts := flag.Uint64("insts", 0, "instruction budget for -sim/-run (0 = to completion)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pok-cc [-run|-sim config] file.c")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	text, err := cc.Compile(string(src))
	if err != nil {
		fatal(err)
	}

	switch {
	case *run:
		prog, err := pok.Assemble(text)
		if err != nil {
			fatal(err)
		}
		out, err := pok.Execute(prog, *insts)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
	case *sim != "":
		cfg, err := pok.ConfigByName(*sim)
		if err != nil {
			fatal(err)
		}
		prog, err := pok.Assemble(text)
		if err != nil {
			fatal(err)
		}
		r, err := pok.Run(prog, cfg, *insts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("config %s: %d insts, %d cycles, IPC %.3f\n",
			r.Config, r.Insts, r.Cycles, r.IPC)
	default:
		fmt.Print(text)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pok-cc:", err)
	os.Exit(1)
}
