// Command satgen writes synthetic SAT instances in DIMACS format — the
// generator families standing in for the paper's SAT2002 benchmark suite.
//
// Usage examples:
//
//	satgen -family pigeonhole -n 10 -o php10.cnf
//	satgen -family random3sat -n 200 -ratio 4.26 -seed 7
//	satgen -family suite -name 6pipe -o 6pipe.cnf
package main

import (
	"flag"
	"fmt"
	"os"

	"gridsat/internal/cnf"
	"gridsat/internal/gen"
)

func main() {
	var (
		family = flag.String("family", "random3sat", "one of: random3sat, pigeonhole, pigeonhole-shuffled, xor, parity, coloring, miter, miterbug, counter, hanoi, factor, latin, suite")
		n      = flag.Int("n", 100, "primary size parameter (variables / holes / width / nodes)")
		m      = flag.Int("m", 0, "secondary size (clauses / equations / edges / steps); 0 derives from -ratio")
		k      = flag.Int("k", 3, "clause width (random3sat) or colors (coloring)")
		ratio  = flag.Float64("ratio", 4.26, "clause-to-variable ratio when -m is 0")
		seed   = flag.Int64("seed", 1, "generator seed")
		sat    = flag.Bool("sat", true, "generate the satisfiable variant where the family has one")
		value  = flag.Uint64("value", 15, "target value (counter, factor)")
		name   = flag.String("name", "", "suite row name (family=suite)")
		out    = flag.String("o", "", "output file (default stdout)")
		list   = flag.Bool("list", false, "list the 42 suite row names and exit")
	)
	flag.Parse()

	if *list {
		for _, inst := range gen.Suite() {
			fmt.Printf("%-30s %-8s section=%d challenge=%v table2=%v\n",
				inst.Name, inst.Expected, inst.Section, inst.Challenge, inst.Table2)
		}
		return
	}

	f, err := build(*family, *n, *m, *k, *ratio, *seed, *sat, *value, *name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "satgen:", err)
		os.Exit(2)
	}
	if *out == "" {
		err = cnf.WriteDIMACS(os.Stdout, f)
	} else {
		err = cnf.WriteDIMACSFile(*out, f) // checks Close: a lost write is an error
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "satgen:", err)
		os.Exit(2)
	}
}

func build(family string, n, m, k int, ratio float64, seed int64, sat bool, value uint64, name string) (*cnf.Formula, error) {
	derive := func(def float64) int {
		if m > 0 {
			return m
		}
		return int(def * float64(n))
	}
	switch family {
	case "random3sat":
		return gen.RandomKSAT(n, derive(ratio), k, seed), nil
	case "pigeonhole":
		return gen.Pigeonhole(n), nil
	case "pigeonhole-shuffled":
		return gen.PigeonholeShuffled(n, seed), nil
	case "xor":
		return gen.XORSystem(n, derive(0.96), sat, seed), nil
	case "parity":
		return gen.ParityChain(n, derive(0.5), sat, seed), nil
	case "coloring":
		return gen.GraphColoring(n, derive(2.3), k, seed), nil
	case "miter":
		return gen.AdderMiter(n), nil
	case "miterbug":
		return gen.AdderMiterBug(n), nil
	case "counter":
		return gen.Counter(n, derive(2), value), nil
	case "hanoi":
		return gen.Hanoi(n, derive(1.5)), nil
	case "factor":
		return gen.FactoringLike(n, value), nil
	case "latin":
		return gen.LatinSquare(n, derive(0.5), seed), nil
	case "suite":
		inst, ok := gen.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown suite row %q (see DESIGN.md for the 42 names)", name)
		}
		return inst.Build(), nil
	default:
		return nil, fmt.Errorf("unknown family %q", family)
	}
}
