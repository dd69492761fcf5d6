// Command perfbench is the repository benchmark: one run times its
// set-up in fresh processes, encodes a workload's items serially through
// nova.EncodeContext, then drives an in-process novad server at a nominal
// open-loop rate and in a saturating closed loop, checks every output
// independently, and prints its metrics as one JSON line.
//
//	bash perfbench/run.sh --workload espresso-heavy --seed 1 --seconds 40 --trace 0
//
// --trace 0 prints the end-to-end metrics. --trace 1 prints the
// per-layer metrics instead: the sweep is rebuilt from the layer calls
// with a span around each, while a child process repeats the untraced
// sweep for the overhead and area comparison. See RATIONALE.md.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"nova/internal/kiss"
)

// A run times its set-up in three batches of setupsPerBatch fresh
// processes: after the sweep, after the serving phase and after the
// checks. setup_s is the median of all nine. The host's speed drifts
// over seconds, so set-ups timed at one moment of a run read high or
// low together; spread over the run, their median does not.
const setupsPerBatch = 3

// readyLine is what a --setup-only process prints once it is set up.
const readyLine = "ready"

type config struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	out       string
	sweepOnly bool
	setupOnly bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var cfg config
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload name")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.IntVar(&cfg.seconds, "seconds", 40, "run length the plan is sized for")
	fs.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics, 1: per-layer metrics")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory for the span file")
	fs.BoolVar(&cfg.sweepOnly, "sweep-only", false, "run the untraced sweep alone (the traced run's child)")
	fs.BoolVar(&cfg.setupOnly, "setup-only", false, "set up, print "+readyLine+" and exit (the set-up timing's child)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if cfg.trace != 0 && cfg.trace != 1 || cfg.seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1 and --seconds at least 1")
		return 2
	}
	wl, err := workloadByName(cfg.workload)
	if err == nil {
		switch {
		case cfg.sweepOnly:
			err = runSweepOnly(wl, cfg, stdout)
		case cfg.setupOnly:
			err = runSetupOnly(wl, cfg, stdout)
		default:
			err = runWorkload(wl, cfg, stdout)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// inputs is what set-up produces: the relabeled machines of the sweep
// and the pool, their KISS2, the serving plan and the running server.
type inputs struct {
	machines map[string]*kiss.FSM
	texts    map[string]string
	plan     *servePlan
	lb       *loopback
	parse    time.Duration
}

// setup generates the seeded inputs, renders them to KISS2 and parses
// them back; with a server it also plans the serving requests and
// starts the in-process server.
func setup(wl *workload, cfg config, withServer bool) (*inputs, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	in := &inputs{machines: map[string]*kiss.FSM{}, texts: map[string]string{}}
	names := []string{}
	for _, it := range wl.items {
		names = append(names, it.machine)
	}
	names = append(names, wl.pool...)
	for _, name := range names {
		if _, ok := in.machines[name]; ok {
			continue
		}
		base, err := suiteMachine(name)
		if err != nil {
			return nil, err
		}
		text := relabel(base, rng)
		t0 := time.Now()
		f, err := kiss.ParseString(text)
		in.parse += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("%s: relabeled machine does not parse: %w", name, err)
		}
		f.Name = name
		in.machines[name], in.texts[name] = f, text
	}
	if !withServer {
		return in, nil
	}
	in.plan = newServePlan(wl, in.texts, rng, planScale(cfg.seconds))
	var err error
	if in.lb, err = startLoopback(); err != nil {
		return nil, err
	}
	return in, nil
}

// planScale sizes the serving phase: the plan fits a 40-second run,
// and a longer --seconds lengthens every window in proportion.
func planScale(seconds int) int {
	return max(1, seconds/40)
}

// runSetupOnly is the set-up timing's child: it sets up as a run does,
// reports that it is ready and stops its server.
func runSetupOnly(wl *workload, cfg config, stdout io.Writer) error {
	in, err := setup(wl, cfg, true)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintln(stdout, readyLine); err != nil {
		in.lb.stop()
		return err
	}
	return in.lb.stop()
}

// timeSetups starts setupsPerBatch fresh --setup-only processes, one
// after another, and times each from its start to its ready line: process
// start, runtime and suite initialization, input generation, rendering,
// parsing, planning and the server start.
func timeSetups(cfg config) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// Return the run's freed heap to the OS first, so that the runtime's
	// background scavenger does not compete with the set-ups for a CPU.
	debug.FreeOSMemory()
	var secs []float64
	for r := 0; r < setupsPerBatch; r++ {
		cmd := exec.Command(exe, "--workload", cfg.workload, "--seed", fmt.Sprint(cfg.seed),
			"--seconds", fmt.Sprint(cfg.seconds), "--out", cfg.out, "--setup-only")
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(pipe).ReadString('\n')
		d := time.Since(t0)
		io.Copy(io.Discard, pipe)
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("set-up process: %w", err)
		}
		if rerr != nil || strings.TrimSpace(line) != readyLine {
			return nil, fmt.Errorf("set-up process printed %q, want %q", line, readyLine)
		}
		secs = append(secs, d.Seconds())
	}
	return secs, nil
}

// childSweep is what the --sweep-only child reports.
type childSweep struct {
	SweepS float64 `json:"sweep_s"`
	Areas  []int   `json:"areas"` // -1 for an item that failed
}

func runSweepOnly(wl *workload, cfg config, stdout io.Writer) error {
	in, err := setup(wl, cfg, false)
	if err != nil {
		return err
	}
	sw := runSweep(context.Background(), wl.items, in.machines)
	out := childSweep{SweepS: sw.wall.Seconds()}
	for i, r := range sw.results {
		area := -1
		if r != nil && sw.errs[i] == nil {
			area = r.Area
		}
		out.Areas = append(out.Areas, area)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

// spawnSweep runs the untraced sweep in a fresh process, so it starts
// with the same cold process-wide memos as the traced pass.
func spawnSweep(cfg config) (*childSweep, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", cfg.workload, "--seed", fmt.Sprint(cfg.seed),
		"--seconds", fmt.Sprint(cfg.seconds), "--out", cfg.out, "--sweep-only")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("untraced sweep process: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var cs childSweep
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &cs); err != nil {
		return nil, fmt.Errorf("untraced sweep process output: %w", err)
	}
	return &cs, nil
}

// calibSink keeps the calibration loop from being optimized away.
var calibSink uint64

// calib times a fixed CPU-only loop (median of five) in milliseconds.
// It records how fast the host ran; no metric is normalized by it.
func calib() float64 {
	var xs []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		x := uint64(r + 1)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		xs = append(xs, ms(time.Since(t0)))
	}
	return median(xs)
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func runWorkload(wl *workload, cfg config, stdout io.Writer) error {
	calibBefore := calib()
	var setups []float64
	timeBatch := func() error {
		secs, err := timeSetups(cfg)
		setups = append(setups, secs...)
		return err
	}
	in, err := setup(wl, cfg, true)
	if err != nil {
		return err
	}
	var child *childSweep
	if cfg.trace == 1 {
		if child, err = spawnSweep(cfg); err != nil {
			in.lb.stop()
			return err
		}
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var sw *sweepResult
	var tp *tracedPass
	var rb []rebuilt
	var rbErrs []error
	var tracedWall time.Duration
	if cfg.trace == 0 {
		sw = runSweep(context.Background(), wl.items, in.machines)
	} else {
		tp = newTracedPass(newRecorder())
		rb, rbErrs, tracedWall = tp.run(wl.items, in.machines)
	}
	if err := timeBatch(); err != nil {
		in.lb.stop()
		return err
	}
	sres := runServe(wl, in.lb, in.plan)
	runtime.ReadMemStats(&m1)
	vars, hists := in.lb.srv.Vars(), in.lb.srv.Metrics().Histograms()
	if err := in.lb.stop(); err != nil {
		return fmt.Errorf("stopping the server: %w", err)
	}
	if err := timeBatch(); err != nil {
		return err
	}

	t0 := time.Now()
	var bad []error
	if cfg.trace == 0 {
		bad = checkSweep(wl.items, in.machines, sw)
	} else {
		bad = checkRebuilt(wl.items, in.machines, rb, rbErrs, child)
	}
	sweepOK := len(wl.items) - len(bad)
	bad = append(bad, sres.failures...)
	bad = append(bad, checkServe(sres, in.plan, in.machines)...)
	checkDur := time.Since(t0)
	if err := timeBatch(); err != nil {
		return err
	}
	calibAfter := calib()

	// attempted and failed count every operation; ok_ratio counts each
	// distinct checked output once, so one bad encoding moves it by far
	// more than its share of the thousands of cache hits.
	attempted := len(wl.items) + sres.attempted()
	okN := sweepOK + sres.ok()
	serveOK, serveN := sres.distinct()
	okRatio := float64(sweepOK+serveOK) / float64(len(wl.items)+serveN)
	res := result{
		Correct:   len(bad) == 0,
		Attempted: attempted,
		Failed:    attempted - okN,
		Metrics:   map[string]metric{},
	}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }

	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%d go=%s nproc=%d gomaxprocs=%d\n",
		wl.name, cfg.seed, cfg.seconds, cfg.trace, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(stdout, "host.calib_ms before=%.3f after=%.3f (diagnostic only; normalizes nothing)\n", calibBefore, calibAfter)
	fmt.Fprintf(stdout, "setup replicas s: %.4f\n", setups)
	printServe(stdout, sres)
	for _, e := range bad {
		fmt.Fprintln(stdout, "CHECK FAILED:", e)
	}

	if cfg.trace == 0 {
		put("setup_s", median(setups), "s")
		put("sweep_s", sw.wall.Seconds(), "s")
		put("encode_geomean_ms", sw.geomeanMs(), "ms")
		put("area_total", float64(sw.areaTotal()), "area")
		put("ok_ratio", okRatio, "ratio")
		put("alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20), "MiB")
		put("peak_rss_mb", peakRSSMiB(), "MiB")
		put("serve_max_rps", sres.saturate.maxRPS(), "1/s")
	} else {
		putLayers(put, in, tp, child, tracedWall, checkDur, sres, vars, hists, &m0, &m1, calibBefore, calibAfter)
		path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.jsonl", wl.name, cfg.seed))
		if err := tp.rec.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(stdout, "spans: %s\n", path)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !res.Correct {
		return errors.New("output check failed")
	}
	return nil
}

// checkRebuilt checks the traced pass: the composed result's area must
// equal what nova.EncodeContext gave for the item in the untraced child,
// and its cover must pass the same independent check.
func checkRebuilt(items []item, machines map[string]*kiss.FSM, rb []rebuilt, errs []error, child *childSweep) []error {
	var bad []error
	if len(child.Areas) != len(items) {
		return []error{fmt.Errorf("untraced sweep reported %d items, want %d", len(child.Areas), len(items))}
	}
	for i, it := range items {
		switch {
		case errs[i] != nil:
			bad = append(bad, fmt.Errorf("%s/%s: %w", it.machine, it.alg, errs[i]))
		case rb[i].area != child.Areas[i]:
			bad = append(bad, fmt.Errorf("%s/%s: rebuilt area %d, EncodeContext gave %d", it.machine, it.alg, rb[i].area, child.Areas[i]))
		default:
			if err := checkEncoding(machines[it.machine], it.machine, it.alg, rb[i].asg, rb[i].pla); err != nil {
				bad = append(bad, err)
			}
		}
	}
	return bad
}

func printServe(w io.Writer, s *serveResult) {
	fmt.Fprintf(w, "serve warm-up %.3f s\n", s.warmup.Seconds())
	st := s.nominal
	p99 := "n/a"
	if st.p99Valid {
		p99 = fmt.Sprintf("%.3f", st.p99)
	}
	fmt.Fprintln(w, "nominal rate_rps sent ok failed refused p50_ms p99_ms late_p99_ms achieved_rps pass")
	fmt.Fprintf(w, "nominal %g %d %d %d %d %.3f %s %.3f %.2f %t\n",
		st.rate, st.sent, st.ok, st.failed, st.refs, st.p50, p99, st.lateP99, st.achieved, st.pass)
	fmt.Fprintf(w, "serve p50 %.3f ms, p99 %.3f ms at %g rps: medians over %d windows of %d samples (%d beyond each p99)\n",
		st.winP50, st.winP99, st.rate, nominalWindows, st.sent/nominalWindows, st.sent/nominalWindows/100)
	sat := s.saturate
	fmt.Fprintf(w, "saturate sent %d ok %d failed %d refused %d p99_ms %.3f window_rps %.1f median %.2f\n",
		sat.sent, sat.ok, sat.failed, sat.refs, sat.p99, sat.winRPS, sat.maxRPS())
}
