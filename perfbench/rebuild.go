package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"nova"
	"nova/internal/baseline"
	"nova/internal/constraint"
	"nova/internal/cube"
	"nova/internal/encode"
	"nova/internal/encoding"
	"nova/internal/espresso"
	"nova/internal/kiss"
	"nova/internal/mvmin"
	"nova/internal/obs"
	"nova/internal/sched"
	"nova/internal/symbolic"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Item   int           `json:"item"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps the spans of the traced pass in memory. The pass is
// serial, so the open spans form a stack and the top is the parent.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string, item int) int {
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]-1].ID
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Item: item, Name: name, Start: time.Since(r.t0)})
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int) {
	r.spans[id-1].End = time.Since(r.t0)
	r.open = r.open[:len(r.open)-1]
}

// selfTimes sums, per span name, each span's duration minus the part
// its child spans cover.
func (r *recorder) selfTimes() map[string]time.Duration {
	child := make(map[int]time.Duration)
	for _, s := range r.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range r.spans {
		out[s.Name] += s.End - s.Start - child[s.ID]
	}
	return out
}

func (r *recorder) write(path string) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(fh)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			fh.Close()
			return err
		}
	}
	return fh.Close()
}

// rebuilt is one item composed from its layer calls.
type rebuilt struct {
	asg  encoding.Assignment
	pla  *kiss.PLA
	area int
}

// tracedPass rebuilds every item from the layer calls nova.EncodeContext
// makes, serially and in the same order, with a span around each call
// and the program's tracer on the context for its own counters. best is
// the exception: it is timed at the EncodeContext boundary (opaque.best)
// and its layers come from its Result.Telemetry phase table.
type tracedPass struct {
	rec         *recorder
	tracer      *obs.Tracer
	ctx         context.Context
	constraints int64
	gaveUp      int64
	// opaque aggregates the telemetry of the best items.
	opaquePhases   map[string]time.Duration
	opaqueCounters map[string]int64
}

func newTracedPass(rec *recorder) *tracedPass {
	t := obs.New()
	return &tracedPass{
		rec: rec, tracer: t, ctx: obs.With(context.Background(), t),
		opaquePhases: map[string]time.Duration{}, opaqueCounters: map[string]int64{},
	}
}

func (tp *tracedPass) run(items []item, machines map[string]*kiss.FSM) ([]rebuilt, []error, time.Duration) {
	out := make([]rebuilt, len(items))
	errs := make([]error, len(items))
	start := time.Now()
	for i, it := range items {
		id := tp.rec.begin("item", i)
		out[i], errs[i] = tp.item(i, it, machines[it.machine])
		tp.rec.end(id)
	}
	return out, errs, time.Since(start)
}

func (tp *tracedPass) call(name string, item int, fn func()) {
	id := tp.rec.begin(name, item)
	fn()
	tp.rec.end(id)
}

func (tp *tracedPass) item(i int, it item, f *kiss.FSM) (rebuilt, error) {
	switch it.alg {
	case nova.IGreedy, nova.IHybrid, nova.IExact, nova.KISS:
		return tp.input(i, it, f)
	case nova.IOHybrid:
		return tp.io(i, it, f)
	case nova.Random:
		return tp.random(i, f)
	case nova.Best:
		return tp.opaque(i, it, f)
	}
	return rebuilt{}, fmt.Errorf("%s: the traced pass cannot rebuild algorithm %s", it.machine, it.alg)
}

func (tp *tracedPass) minOpt() espresso.Options { return espresso.Options{Ctx: tp.ctx} }

func (tp *tracedPass) hybOpt() encode.HybridOptions {
	return encode.HybridOptions{Seed: encoderSeed, Ctx: tp.ctx}
}

// exactFallback is the ihybrid run that replaces a symbolic-input iexact
// that gave up; it inherits the iexact item's work budget.
func (tp *tracedPass) exactFallback() encode.HybridOptions {
	o := tp.hybOpt()
	o.MaxWork = iexactBudget
	return o
}

func (tp *tracedPass) countConstraints(cs ...[]constraint.Constraint) {
	for _, c := range cs {
		tp.constraints += int64(len(c))
	}
}

// input mirrors the input-constraint path: one multiple-valued
// minimization, then the state and symbolic-input encodes.
func (tp *tracedPass) input(i int, it item, f *kiss.FSM) (rebuilt, error) {
	var p *mvmin.Problem
	var err error
	tp.call("mvmin.build", i, func() { p, err = mvmin.BuildWithFork(f, tp.ctx, nil) })
	if err != nil {
		return rebuilt{}, err
	}
	var min *cube.Cover
	tp.call("mvmin.minimize", i, func() { min = p.Minimize(tp.minOpt()) })
	var cs mvmin.ConstraintSets
	tp.call("mvmin.constraints", i, func() { cs = p.Constraints(min) })
	tp.countConstraints(cs.States)
	tp.countConstraints(cs.SymIns...)

	var asg encoding.Assignment
	var r encode.Result
	n := f.NumStates()
	switch it.alg {
	case nova.IExact:
		tp.call("encode.iexact", i, func() {
			r = encode.IExact(n, cs.States, encode.ExactOptions{MaxWork: iexactBudget, Ctx: tp.ctx})
		})
		if r.GaveUp {
			tp.gaveUp++
			return rebuilt{}, fmt.Errorf("%s/%s: %w", it.machine, it.alg, nova.ErrGaveUp)
		}
	case nova.IHybrid:
		tp.call("encode.ihybrid", i, func() { r = encode.IHybrid(n, cs.States, 0, tp.hybOpt()) })
	case nova.IGreedy:
		tp.call("encode.igreedy", i, func() { r = encode.IGreedy(n, cs.States, 0) })
	case nova.KISS:
		tp.call("encode.kiss", i, func() { r = encode.SatisfyAll(n, cs.States) })
	}
	if r.Err != nil {
		return rebuilt{}, r.Err
	}
	asg.States = r.Enc
	for vi := range f.SymIns {
		nv := len(f.SymIns[vi].Values)
		var sr encode.Result
		switch it.alg {
		case nova.IExact:
			tp.call("encode.iexact", i, func() {
				sr = encode.IExact(nv, cs.SymIns[vi], encode.ExactOptions{MaxWork: iexactBudget, Ctx: tp.ctx})
			})
			if sr.Err == nil && sr.GaveUp {
				tp.gaveUp++
				tp.call("encode.ihybrid", i, func() { sr = encode.IHybrid(nv, cs.SymIns[vi], 0, tp.exactFallback()) })
			}
		case nova.KISS:
			tp.call("encode.kiss", i, func() { sr = encode.SatisfyAll(nv, cs.SymIns[vi]) })
		case nova.IGreedy:
			tp.call("encode.igreedy", i, func() { sr = encode.IGreedy(nv, cs.SymIns[vi], 0) })
		default:
			tp.call("encode.ihybrid", i, func() { sr = encode.IHybrid(nv, cs.SymIns[vi], 0, tp.hybOpt()) })
		}
		if sr.Err != nil {
			return rebuilt{}, sr.Err
		}
		asg.SymIns = append(asg.SymIns, sr.Enc)
	}
	return tp.finish(i, f, asg)
}

// io mirrors iohybrid: symbolic minimization, then the ordered face
// embedding of the states and ihybrid for each symbolic input.
func (tp *tracedPass) io(i int, it item, f *kiss.FSM) (rebuilt, error) {
	var out *symbolic.Output
	var err error
	tp.call("symbolic.analyze", i, func() { out, err = symbolic.Analyze(f, symbolic.Options{Min: tp.minOpt()}) })
	if err != nil {
		return rebuilt{}, err
	}
	var r encode.Result
	tp.call("encode.iohybrid", i, func() { r = encode.IOHybrid(out.Problem, 0, tp.hybOpt()) })
	if r.Err != nil {
		return rebuilt{}, r.Err
	}
	asg := encoding.Assignment{States: r.Enc}
	for vi := range f.SymIns {
		var sr encode.Result
		tp.call("encode.ihybrid", i, func() {
			sr = encode.IHybrid(len(f.SymIns[vi].Values), out.SymIns[vi], 0, tp.hybOpt())
		})
		if sr.Err != nil {
			return rebuilt{}, sr.Err
		}
		asg.SymIns = append(asg.SymIns, sr.Enc)
	}
	return tp.finish(i, f, asg)
}

// random mirrors the random baseline: measure every trial assignment,
// keep the smallest area (lowest trial on ties), then finish it.
func (tp *tracedPass) random(i int, f *kiss.FSM) (rebuilt, error) {
	trials := baseline.DefaultRandomTrials(f)
	var best encoding.Assignment
	bestArea := -1
	for t := 0; t < trials; t++ {
		var asg encoding.Assignment
		tp.call("baseline.random", i, func() { asg = baseline.RandomAssignment(f, sched.SplitSeed(encoderSeed, t)) })
		var m mvmin.Metrics
		var err error
		tp.call("espresso.trials", i, func() { m, err = mvmin.Measure(f, asg, tp.minOpt()) })
		if err != nil {
			return rebuilt{}, err
		}
		if bestArea < 0 || m.Area < bestArea {
			best, bestArea = asg, m.Area
		}
	}
	return tp.finish(i, f, best)
}

// finish mirrors the end of every run: symbolic outputs, the encoded
// machine, its final minimization and the paper's area.
func (tp *tracedPass) finish(i int, f *kiss.FSM, asg encoding.Assignment) (rebuilt, error) {
	if len(f.SymOuts) > 0 && len(asg.SymOuts) != len(f.SymOuts) {
		var outs []symbolic.OutputEncodingResult
		var err error
		tp.call("symbolic.outputs", i, func() { outs, err = symbolic.EncodeSymbolicOutputs(f, symbolic.Options{Min: tp.minOpt()}) })
		if err != nil {
			return rebuilt{}, err
		}
		asg.SymOuts = nil
		for _, o := range outs {
			asg.SymOuts = append(asg.SymOuts, o.Enc)
		}
	}
	var e *mvmin.Encoded
	var err error
	tp.call("mvmin.encodepla", i, func() { e, err = mvmin.EncodePLA(f, asg) })
	if err != nil {
		return rebuilt{}, err
	}
	var min *cube.Cover
	tp.call("espresso.final", i, func() { min = e.Minimize(tp.minOpt()) })
	pla, err := kiss.FromCover(min, e.NIn, e.NOut)
	if err != nil {
		return rebuilt{}, err
	}
	area := kiss.Area(f.NI+asg.InputBits(), asg.States.Bits, f.NO+asg.OutputBits(), min.Len())
	return rebuilt{asg: asg, pla: pla, area: area}, nil
}

// opaque times a best item at the EncodeContext boundary, with nproc
// workers as in the untraced sweep, and keeps its phase table.
func (tp *tracedPass) opaque(i int, it item, f *kiss.FSM) (rebuilt, error) {
	opt := it.options()
	opt.Tracer = nova.NewTracer()
	var res *nova.Result
	var err error
	tp.call("opaque.best", i, func() { res, err = nova.EncodeContext(context.Background(), f, opt) })
	if err != nil {
		return rebuilt{}, err
	}
	if tel := res.Telemetry; tel != nil {
		for _, ph := range tel.Phases {
			tp.opaquePhases[ph.Name] += ph.Self
		}
		for k, v := range tel.Counters {
			tp.opaqueCounters[k] += v
		}
	}
	return rebuilt{asg: res.Assignment, pla: res.PLA, area: res.Area}, nil
}

// layerOf names the layer a span or program phase belongs to.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "espresso."):
		return "espresso"
	case strings.HasPrefix(name, "encode."), strings.HasPrefix(name, "search."):
		return "search"
	case strings.HasPrefix(name, "symbolic."):
		return "symbolic"
	case strings.HasPrefix(name, "mvmin."):
		return "mvmin"
	}
	return "other"
}

// layerSelf merges the benchmark's span self times and the best items'
// program phases into per-layer self time. opaque.best itself only
// carries the time its phase table does not explain.
func (tp *tracedPass) layerSelf() map[string]time.Duration {
	self := tp.rec.selfTimes()
	out := map[string]time.Duration{}
	var explained time.Duration
	for name, d := range tp.opaquePhases {
		out[layerOf(name)] += d
		explained += d
	}
	for name, d := range self {
		switch name {
		case "opaque.best":
			if rest := d - explained; rest > 0 {
				out["other"] += rest
			}
		default:
			out[layerOf(name)] += d
		}
	}
	return out
}

// counters merges the program counters of the rebuilt items and of the
// best items.
func (tp *tracedPass) counters() map[string]int64 {
	out := tp.tracer.Metrics().Counters()
	for k, v := range tp.opaqueCounters {
		out[k] += v
	}
	return out
}
