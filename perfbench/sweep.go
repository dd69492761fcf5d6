package main

import (
	"context"
	"fmt"
	"time"

	"nova"
	"nova/internal/kiss"
	"nova/internal/verify"
)

// sweepResult is one serial pass over a workload's items.
type sweepResult struct {
	wall    time.Duration
	durs    []time.Duration
	results []*nova.Result
	errs    []error
}

func (s *sweepResult) areaTotal() int {
	n := 0
	for _, r := range s.results {
		if r != nil {
			n += r.Area
		}
	}
	return n
}

func (s *sweepResult) geomeanMs() float64 {
	xs := make([]float64, len(s.durs))
	for i, d := range s.durs {
		xs[i] = ms(d)
	}
	return geomean(xs)
}

// runSweep encodes the items one at a time through nova.EncodeContext.
func runSweep(ctx context.Context, items []item, machines map[string]*kiss.FSM) *sweepResult {
	s := &sweepResult{
		durs:    make([]time.Duration, len(items)),
		results: make([]*nova.Result, len(items)),
		errs:    make([]error, len(items)),
	}
	start := time.Now()
	for i, it := range items {
		t0 := time.Now()
		s.results[i], s.errs[i] = nova.EncodeContext(ctx, machines[it.machine], it.options())
		s.durs[i] = time.Since(t0)
	}
	s.wall = time.Since(start)
	return s
}

// checkEncoding is the independent output check: the returned cover is
// simulated against the machine the benchmark parsed, never compared
// with another encoder result.
func checkEncoding(f *kiss.FSM, machine string, alg nova.Algorithm, asg nova.Assignment, pla *kiss.PLA) error {
	if pla == nil {
		return fmt.Errorf("%s/%s: no PLA returned", machine, alg)
	}
	if err := verify.Equivalent(f, asg, pla.OnSet(), verify.Options{Seed: 1}); err != nil {
		return fmt.Errorf("%s/%s: cover does not implement the machine: %w", machine, alg, err)
	}
	return nil
}

// checkSweep checks every item and returns the failures.
func checkSweep(items []item, machines map[string]*kiss.FSM, s *sweepResult) []error {
	var bad []error
	for i, it := range items {
		if s.errs[i] != nil {
			bad = append(bad, fmt.Errorf("%s/%s: %w", it.machine, it.alg, s.errs[i]))
			continue
		}
		r := s.results[i]
		if err := checkEncoding(machines[it.machine], it.machine, it.alg, r.Assignment, r.PLA); err != nil {
			bad = append(bad, err)
		}
	}
	return bad
}
