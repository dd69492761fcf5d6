package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"nova"
	"nova/internal/bench"
	"nova/internal/kiss"
)

// item is one encode of the offline sweep.
type item struct {
	machine string
	alg     nova.Algorithm
}

// workload fixes everything a run does except the seed: the sweep's item
// list, the serving pool and the nominal serving rate.
type workload struct {
	name  string
	items []item
	// pool and poolAlgs are the (machine, algorithm) pairs the serving
	// phase warms once and then requests again (cache hits).
	pool     []string
	poolAlgs []nova.Algorithm
	// nominalRPS is the open-loop rate of the nominal step, about a
	// fifth of what the saturating loop reaches on a 2-CPU host.
	nominalRPS float64
	// p99LimitMs is the latency limit the nominal step must meet.
	p99LimitMs float64
}

// iexactBudget pins the iexact work budget: the budget counts search
// work, not time, so a give-up repeats exactly on every host.
const iexactBudget = 200_000

// encoderSeed is the Options.Seed of every encode. The benchmark seed
// only renames states and symbolic values, so the work per item does not
// depend on it.
const encoderSeed = 1

func cross(machines []string, algs ...nova.Algorithm) []item {
	var out []item
	for _, m := range machines {
		for _, a := range algs {
			out = append(out, item{m, a})
		}
	}
	return out
}

var heavy = []string{"keyb", "sand", "styr", "planet", "ex1", "s1", "cse", "scud", "dk16", "donfile"}

var medium = []string{"dk16", "donfile", "s1", "ex2", "dk512", "bbsse", "cse", "bbara", "dk14", "dk17", "ex3", "ex5", "physrec", "lion9"}

var workloads = []workload{
	{
		name: "espresso-heavy",
		// keyb/kiss and sand/kiss (7 s each) are left out so that one
		// serial pass fits the run, and igreedy on the four smallest
		// machines (15-50 ms) so that no item is short enough for one GC
		// pause to dominate it; the other 24 items take about 20 s on a
		// 2-CPU host.
		items: dropItems(cross(heavy, nova.IGreedy, nova.KISS, nova.Random),
			item{"keyb", nova.KISS}, item{"sand", nova.KISS},
			item{"cse", nova.IGreedy}, item{"scud", nova.IGreedy},
			item{"dk16", nova.IGreedy}, item{"donfile", nova.IGreedy}),
		pool:       heavy,
		poolAlgs:   []nova.Algorithm{nova.IGreedy},
		nominalRPS: 500,
		p99LimitMs: 100,
	},
	{
		name: "search-heavy",
		// Items under 40 ms are left out: a GC pause would dominate them.
		// So are dk16/iexact and s1/iexact: at this budget iexact settles
		// on long codes there, and their final ESPRESSO run (2.5 s and
		// 0.9 s) would outweigh their search.
		items: dropItems(cross(medium, nova.IHybrid, nova.IOHybrid, nova.IExact, nova.Best),
			item{"dk16", nova.IExact}, item{"s1", nova.IExact},
			item{"dk512", nova.Best}, item{"bbsse", nova.IOHybrid}, item{"bbsse", nova.Best},
			item{"bbara", nova.IHybrid}, item{"bbara", nova.Best},
			item{"dk14", nova.IHybrid}, item{"dk14", nova.IOHybrid}, item{"dk14", nova.Best},
			item{"dk17", nova.IHybrid}, item{"dk17", nova.IOHybrid}, item{"dk17", nova.Best},
			item{"ex3", nova.IHybrid}, item{"ex3", nova.Best},
			item{"ex5", nova.IHybrid}, item{"ex5", nova.IOHybrid}, item{"ex5", nova.Best},
			item{"physrec", nova.IHybrid}, item{"physrec", nova.IOHybrid}, item{"physrec", nova.Best},
			item{"lion9", nova.IHybrid}, item{"lion9", nova.IOHybrid}, item{"lion9", nova.Best}),
		pool:       medium,
		poolAlgs:   []nova.Algorithm{nova.IHybrid},
		nominalRPS: 600,
		p99LimitMs: 100,
	},
}

func dropItems(list []item, drop ...item) []item {
	var out []item
	for _, it := range list {
		keep := true
		for _, d := range drop {
			if it == d {
				keep = false
			}
		}
		if keep {
			out = append(out, it)
		}
	}
	return out
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// options returns the encode options of one sweep item. Only best fans
// out (over nproc workers); every other item runs serially.
func (it item) options() nova.Options {
	opt := nova.Options{Algorithm: it.alg, Seed: encoderSeed, Parallelism: 1, KeepPLA: true}
	if it.alg == nova.IExact {
		opt.MaxWork = iexactBudget
	}
	if it.alg == nova.Best {
		opt.Parallelism = runtime.NumCPU()
	}
	return opt
}

// relabel renders a copy of the suite machine as KISS2 text with every
// state and every symbolic input value renamed from rng. Rows keep their
// order, so states keep their first-appearance order: every relabeling
// parses to the same indices and encodes with exactly the same work.
func relabel(base *kiss.FSM, rng *rand.Rand) string {
	g := *base
	tag := rng.Uint32()
	g.States = make([]string, len(base.States))
	for i := range g.States {
		g.States[i] = fmt.Sprintf("q%08x_%d", tag^rng.Uint32(), i)
	}
	g.SymIns = make([]kiss.Var, len(base.SymIns))
	for vi, v := range base.SymIns {
		nv := kiss.Var{Name: v.Name, Values: make([]string, len(v.Values))}
		for j := range v.Values {
			nv.Values[j] = fmt.Sprintf("v%08x_%d", rng.Uint32(), j)
		}
		g.SymIns[vi] = nv
	}
	return g.String()
}

// suiteMachine returns the named suite machine or an error.
func suiteMachine(name string) (*kiss.FSM, error) {
	f := bench.Get(name)
	if f == nil {
		return nil, fmt.Errorf("machine %q is not in the suite", name)
	}
	return f, nil
}
