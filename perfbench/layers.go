package main

import (
	"runtime"
	"sort"
	"time"

	"nova/internal/obs"
)

// layerSearchAlgs are the encoders whose time encode.search_ms.<alg>
// reports; "kiss" is encode.SatisfyAll.
var layerSearchAlgs = []string{"igreedy", "ihybrid", "iexact", "iohybrid", "kiss"}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func mergeHists(hs map[string]obs.Hist, names ...string) obs.Hist {
	var out obs.Hist
	for _, n := range names {
		h := hs[n]
		for i, c := range h.Buckets {
			out.Buckets[i] += c
		}
		out.Count += h.Count
		out.Sum += h.Sum
		out.MaxV = max(out.MaxV, h.MaxV)
	}
	return out
}

// putLayers emits the per-layer metrics of a traced run.
func putLayers(put func(string, float64, string), in *inputs, tp *tracedPass, child *childSweep,
	tracedWall, checkDur time.Duration, sres *serveResult, vars map[string]int64, hists map[string]obs.Hist,
	m0, m1 *runtime.MemStats, calibBefore, calibAfter float64) {
	self := tp.rec.selfTimes()
	put("kiss.parse_ms", ms(in.parse), "ms")

	put("mvmin.build_ms", ms(self["mvmin.build"]), "ms")
	put("mvmin.minimize_ms", ms(self["mvmin.minimize"]), "ms")
	put("mvmin.encodepla_ms", ms(self["mvmin.encodepla"]), "ms")
	put("mvmin.constraints", float64(tp.constraints), "count")

	// Constraint preprocessing runs inside the encoders; its time is the
	// program's own encode.preprocess phase.
	pre := tp.opaquePhases["encode.preprocess"]
	if ph := tp.tracer.Snapshot().Phase("encode.preprocess"); ph != nil {
		pre += ph.Self
	}
	put("constraint.preprocess_ms", ms(pre), "ms")
	c := tp.counters()
	put("search.constraints.merged", float64(c["search.constraints.merged"]), "count")
	put("search.constraints.infeasible", float64(c["search.constraints.infeasible"]), "count")

	for _, a := range layerSearchAlgs {
		put("encode.search_ms."+a, ms(self["encode."+a]), "ms")
	}
	for _, k := range []string{"search.work", "search.backtracks", "search.symmetry.pruned", "search.memo.hit", "search.memo.miss"} {
		put(k, float64(c[k]), "count")
	}
	put("encode.gave_up", float64(tp.gaveUp), "count")
	put("symbolic.analyze_ms", ms(self["symbolic.analyze"]), "ms")

	put("espresso.final_ms", ms(self["espresso.final"]), "ms")
	put("espresso.trials_ms", ms(self["espresso.trials"]), "ms")
	put("espresso.iterations", float64(c["espresso.iterations"]), "count")
	put("tautology.calls", float64(c["tautology.calls"]), "count")
	put("tautology.memo_lookups", float64(c["tautology.memo_lookups"]), "count")
	put("tautology.memo_hit_ratio", ratio(c["tautology.memo_hits"], c["tautology.memo_lookups"]), "ratio")
	put("arena.cube_reuse_ratio", ratio(c["arena.cubes_reused"], c["arena.cubes_reused"]+c["arena.cubes_alloc"]), "ratio")
	put("opaque.best_ms", ms(self["opaque.best"]), "ms")

	layers := tp.layerSelf()
	var total time.Duration
	for _, d := range layers {
		total += d
	}
	for _, l := range []string{"espresso", "search", "symbolic", "mvmin", "other"} {
		put("layer."+l+"_pct", 100*ratio(int64(layers[l]), int64(total)), "%")
	}
	put("sweep.traced_s", tracedWall.Seconds(), "s")
	put("sweep.untraced_s", child.SweepS, "s")
	put("trace.overhead_pct", 100*(tracedWall.Seconds()/child.SweepS-1), "%")

	put("verify.check_ms", ms(checkDur), "ms")
	put("verify.fsm_ms", float64(hists["http.latency./v1/verify"].Sum)/1000, "ms")
	put("pool.tasks", float64(c["pool.tasks"]), "count")
	put("pool.inline", float64(c["pool.inline"]), "count")

	put("cache.hit_ratio", ratio(vars["cache.hits"], vars["cache.hits"]+vars["cache.misses"]), "ratio")
	put("cache.lookups", float64(vars["cache.hits"]+vars["cache.misses"]), "count")
	put("flight.shared", float64(vars["flight.shared"]), "count")
	put("engine.encodes", float64(vars["engine.encodes"]), "count")
	put("http.rejected.saturated", float64(vars["http.rejected.saturated"]), "count")
	for _, p := range []string{"low", "normal", "high"} {
		put("serve.shed."+p, float64(vars["serve.shed."+p]), "count")
	}
	lat := mergeHists(hists, "http.latency./v1/encode", "http.latency./v1/verify")
	put("http.latency_p50_ms", histQuantileMs(lat, 0.50), "ms")
	put("http.latency_p99_ms", histQuantileMs(lat, 0.99), "ms")
	// The latency the client saw at the nominal rate, as the untraced run
	// prints it. It is not an end-to-end metric: between identical runs
	// on a 2-vCPU host its quartile spread reached 0.26 (p50) and 0.88
	// (p99), wider than any bound the benchmark may set.
	nominal := sres.nominal
	put("serve.p50_ms", nominal.winP50, "ms")
	put("serve.p99_ms", nominal.winP99, "ms")
	put("serve.nominal_samples", float64(nominal.sent), "count")
	put("serve.saturate_p99_ms", sres.saturate.p99, "ms")
	late := append([]float64(nil), sres.late...)
	sort.Float64s(late)
	put("loadgen.late_p99_ms", quantile(late, 0.99), "ms")
	sat := sres.saturate
	for _, st := range []struct {
		name                   string
		sent, ok, failed, refs int
	}{
		{"nominal", nominal.sent, nominal.ok, nominal.failed, nominal.refs},
		{"saturate", sat.sent, sat.ok, sat.failed, sat.refs},
	} {
		pre := "loadgen." + st.name + "."
		put(pre+"sent", float64(st.sent), "count")
		put(pre+"ok", float64(st.ok), "count")
		put(pre+"failed", float64(st.failed), "count")
		put(pre+"refused", float64(st.refs), "count")
	}

	put("gc.cycles", float64(m1.NumGC-m0.NumGC), "count")
	put("gc.pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, "ms")
	put("host.calib_before_ms", calibBefore, "ms")
	put("host.calib_after_ms", calibAfter, "ms")
	put("host.nproc", float64(runtime.NumCPU()), "count")
	put("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count")
}
