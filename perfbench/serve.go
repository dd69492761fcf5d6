package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nova"
	"nova/internal/kiss"
	"nova/internal/serve"
)

// pair is one (machine, algorithm) combination of the serving pool.
type pair struct {
	machine string
	alg     nova.Algorithm
}

// plannedReq is one scheduled repeat of a warmed pair.
type plannedReq struct {
	pair int
	at   time.Duration // send time, from the step's start
}

// servePlan is everything the serving phase sends, generated from the
// seed during set-up.
type servePlan struct {
	pairs      []pair
	texts      []string // KISS2 of each pair's machine
	encBodies  [][]byte // the encode request of each pair
	warmBodies [][]byte // warm-up responses: what every repeat must replay
	nominal    []plannedReq
	saturate   []int // the pairs the saturating loop requests, in order
}

// windowSamples is the request count of one measuring window: with 1100
// samples, 11 lie beyond the p99, so every window can report one.
const windowSamples = 1100

// nominalWindows is how many windows the nominal step runs. Its p50 and
// p99 are the medians of the windows' values, so one stall lands in one
// window and does not move the result.
const nominalWindows = 7

// saturateWindows is how many windows of saturateSamples requests the
// saturating loop runs; serve_max_rps is the median of the windows'
// throughput. One window lasts about a second on a 2-CPU host, long
// enough to hold several garbage collections.
const (
	saturateWindows = 9
	saturateSamples = 2000
)

func encodeBody(name, text string, alg nova.Algorithm) []byte {
	b, err := json.Marshal(nova.Request{KISS2: text, Name: name, Algorithm: alg, Seed: encoderSeed, IncludePLA: true})
	if err != nil {
		panic(err) // a plain struct of strings and ints always marshals
	}
	return b
}

// newServePlan repeats every pair equally often and lets the seed
// choose only the order and the nominal step's arrival times. Each gap
// between arrivals is drawn uniformly from half to one and a half mean
// gaps: the rate holds on average, but no burst forms. With Poisson
// arrivals the p99 of identical runs swung threefold on a 2-vCPU host,
// as bursts met the garbage collector.
func newServePlan(wl *workload, texts map[string]string, rng *rand.Rand, scale int) *servePlan {
	p := &servePlan{}
	for _, m := range wl.pool {
		for _, a := range wl.poolAlgs {
			p.pairs = append(p.pairs, pair{m, a})
			p.texts = append(p.texts, texts[m])
			p.encBodies = append(p.encBodies, encodeBody(m, texts[m], a))
		}
	}
	order := func(n int) []int {
		xs := make([]int, n)
		for i := range xs {
			xs[i] = i % len(p.pairs)
		}
		rng.Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		return xs
	}
	at := time.Duration(0)
	for _, pr := range order(windowSamples * nominalWindows * scale) {
		at += time.Duration((0.5 + rng.Float64()) / wl.nominalRPS * float64(time.Second))
		p.nominal = append(p.nominal, plannedReq{pair: pr, at: at})
	}
	p.saturate = order(saturateSamples * saturateWindows * scale)
	return p
}

// loopback is an in-process serve.Server behind a loopback listener and
// a client limited to nproc keep-alive connections.
type loopback struct {
	srv    *serve.Server
	hs     *http.Server
	done   chan error
	url    string
	client *http.Client
}

func startLoopback() (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	n := runtime.NumCPU()
	lb := &loopback{
		srv:  serve.New(serve.Config{}),
		done: make(chan error, 1),
		url:  "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true},
		},
	}
	lb.hs = &http.Server{Handler: lb.srv}
	go func() { lb.done <- lb.hs.Serve(ln) }()
	return lb, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (lb *loopback) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := lb.hs.Shutdown(ctx)
	if serr := <-lb.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	lb.client.CloseIdleConnections()
	return err
}

func (lb *loopback) post(path string, body []byte) (int, []byte, error) {
	resp, err := lb.client.Post(lb.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// outcome is what the load generator saw of one request.
type outcome struct {
	late, latency time.Duration
	done          time.Duration // completion time, from the phase's start
	status        int
	ok, sent      bool
	err           error
}

type stepResult struct {
	rate                   float64
	sent, ok, failed, refs int
	p50, p99, lateP99      float64 // ms
	winP50, winP99         float64 // ms, medians over the step's windows
	p99Valid               bool
	achieved               float64 // completed requests per second
	lateGrowing, aborted   bool
	pass                   bool
}

// saturateResult is the closed loop that keeps every connection busy.
type saturateResult struct {
	sent, ok, failed, refs int
	winRPS                 []float64 // throughput of each window
	p99                    float64   // ms, from each request's send
}

// maxRPS is the median throughput of the saturating loop's windows.
func (s *saturateResult) maxRPS() float64 { return median(s.winRPS) }

type serveResult struct {
	nominal  stepResult
	saturate saturateResult
	// ran reports whether the warm-up succeeded and the timed phase ran.
	ran bool
	// Per pair: whether its warm-up encode came back, whether /v1/verify
	// accepted it, and how many repeats were sent and replayed it.
	warmOK, verifyOK     []bool
	repeatSent, repeatOK []int
	failures             []error
	late                 []float64 // every nominal request's lateness in ms
	warmup               time.Duration
}

// attempted is every request the serving phase sent.
func (s *serveResult) attempted() int {
	n := 0
	for i := range s.warmOK {
		n += 2 + s.repeatSent[i]
	}
	return n
}

// ok is every request whose output passed its check. A repeat is ok
// only when it replayed a warm-up body that passed the check.
func (s *serveResult) ok() int {
	n := 0
	for i := range s.warmOK {
		if s.warmOK[i] {
			n += 1 + s.repeatOK[i]
		}
		if s.verifyOK[i] {
			n++
		}
	}
	return n
}

// distinct returns the serving phase's share of the distinct checked
// outputs: per pair, its warm-up encoding, its verify call and the
// replay of that encoding by every repeat. It returns how many of them
// passed and how many there are.
func (s *serveResult) distinct() (ok, n int) {
	for i := range s.warmOK {
		n += 3
		for _, pass := range []bool{s.warmOK[i], s.verifyOK[i],
			s.ran && s.warmOK[i] && s.repeatSent[i] > 0 && s.repeatOK[i] == s.repeatSent[i]} {
			if pass {
				ok++
			}
		}
	}
	return ok, n
}

// abortLate stops a step whose generator fell this far behind: the
// system is past its capacity and the step has failed.
const abortLate = 2 * time.Second

// runServe warms the cache with one encode and one verify per pair, then
// runs the nominal step and the saturating loop. Every repeat must
// replay the warm-up bytes, which checkServe checks after the timed
// phase, and /v1/verify must accept the warm-up encodings.
func runServe(wl *workload, lb *loopback, p *servePlan) *serveResult {
	n := len(p.pairs)
	res := &serveResult{warmOK: make([]bool, n), verifyOK: make([]bool, n), repeatSent: make([]int, n), repeatOK: make([]int, n)}
	t0 := time.Now()
	p.warmBodies = make([][]byte, n)
	for i, pr := range p.pairs {
		status, body, err := lb.post("/v1/encode", p.encBodies[i])
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		var rp nova.Response
		if err == nil {
			err = json.Unmarshal(body, &rp)
		}
		var vb []byte
		if err == nil {
			vb, err = json.Marshal(nova.VerifyRequest{KISS2: p.texts[i], Name: pr.machine, States: rp.States, SymIns: rp.SymIns, SymOuts: rp.SymOuts})
		}
		if err != nil {
			res.failures = append(res.failures, fmt.Errorf("warm-up %s/%s: %w", pr.machine, pr.alg, err))
			continue
		}
		res.warmOK[i] = true
		p.warmBodies[i] = body
		status, body, err = lb.post("/v1/verify", vb)
		if err == nil {
			err = checkVerify(status, body)
		}
		if err != nil {
			res.failures = append(res.failures, fmt.Errorf("warm-up verify %s/%s: %w", pr.machine, pr.alg, err))
			continue
		}
		res.verifyOK[i] = true
	}
	res.warmup = time.Since(t0)
	if len(res.failures) > 0 {
		return res
	}
	res.ran = true
	tally := func(phase string, pairOf func(int) int, outs []outcome) {
		for i, o := range outs {
			if !o.sent {
				continue
			}
			res.repeatSent[pairOf(i)]++
			if o.ok {
				res.repeatOK[pairOf(i)]++
			}
			if o.err != nil && o.status == http.StatusOK {
				res.failures = append(res.failures, fmt.Errorf("%s: %w", phase, o.err))
			}
		}
	}
	outs, aborted := runNominal(lb, p)
	tally(fmt.Sprintf("nominal step %g rps", wl.nominalRPS), func(i int) int { return p.nominal[i].pair }, outs)
	for _, o := range outs {
		if o.sent {
			res.late = append(res.late, ms(o.late))
		}
	}
	res.nominal = summarizeStep(wl.nominalRPS, aborted, p.nominal, outs, wl.p99LimitMs, nominalWindows)
	outs = runSaturate(lb, p)
	tally("saturating loop", func(i int) int { return p.saturate[i] }, outs)
	res.saturate = summarizeSaturate(outs, saturateWindows)
	return res
}

// checkServe checks the warm-up encodings independently. Every repeat
// replayed them byte for byte, so a warm-up body that fails its check
// also fails its verify call and every repeat of its pair.
func checkServe(res *serveResult, p *servePlan, machines map[string]*kiss.FSM) []error {
	var bad []error
	for i, pr := range p.pairs {
		if p.warmBodies[i] == nil {
			continue
		}
		if err := checkResponse(p.warmBodies[i], machines[pr.machine], pr); err != nil {
			bad = append(bad, err)
			res.warmOK[i], res.verifyOK[i] = false, false
		}
	}
	return bad
}

func checkVerify(status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("verify status %d: %s", status, body)
	}
	var vr nova.VerifyResponse
	if err := json.Unmarshal(body, &vr); err != nil {
		return fmt.Errorf("verify response: %w", err)
	}
	if !vr.OK {
		return fmt.Errorf("server rejected an encoding it served: %s", vr.Error)
	}
	return nil
}

// checkResponse decodes a served encoding and checks it independently
// against the machine the request was rendered from.
func checkResponse(body []byte, f *kiss.FSM, pr pair) error {
	var rp nova.Response
	if err := json.Unmarshal(body, &rp); err != nil {
		return fmt.Errorf("response: %w", err)
	}
	if rp.Error != "" {
		return fmt.Errorf("served error %s: %s", rp.ErrorKind, rp.Error)
	}
	asg, err := rp.Assignment()
	if err != nil {
		return err
	}
	pla, err := kiss.ParsePLAString(rp.PLA)
	if err != nil {
		return fmt.Errorf("served PLA: %w", err)
	}
	return checkEncoding(f, pr.machine, pr.alg, asg, pla)
}

// runNominal sends the nominal step open-loop: a dispatcher hands each
// request to one of nproc connection workers at its scheduled time, and
// every latency is taken from that scheduled time, so a stall also
// charges the requests that queued behind it.
func runNominal(lb *loopback, p *servePlan) ([]outcome, bool) {
	reqs := p.nominal
	outs := make([]outcome, len(reqs))
	jobs := make(chan int)
	start := time.Now()
	done := workers(func() {
		for i := range jobs {
			outs[i] = send(lb, p, reqs[i].pair, start, reqs[i].at)
		}
	})
	aborted := false
	for i := range reqs {
		if d := time.Until(start.Add(reqs[i].at)); d > 0 {
			time.Sleep(d)
		}
		if time.Since(start)-reqs[i].at > abortLate {
			aborted = true
			break
		}
		jobs <- i
	}
	close(jobs)
	done()
	return outs, aborted
}

// runSaturate keeps every connection busy: nproc workers send the
// planned pairs back to back, each taking the next request as soon as
// its last one completed.
func runSaturate(lb *loopback, p *servePlan) []outcome {
	outs := make([]outcome, len(p.saturate))
	var next atomic.Int64
	start := time.Now()
	done := workers(func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(p.saturate) {
				return
			}
			outs[i] = send(lb, p, p.saturate[i], start, time.Since(start))
		}
	})
	done()
	return outs
}

// workers starts nproc goroutines running fn and returns a function
// that waits for all of them to return.
func workers(fn func()) (wait func()) {
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	return wg.Wait
}

// send posts one repeat of a pair that was due at the given offset from
// start; latency runs from that offset, not from the actual send.
func send(lb *loopback, p *servePlan, pr int, start time.Time, at time.Duration) outcome {
	o := outcome{sent: true, late: time.Since(start) - at}
	status, body, err := lb.post("/v1/encode", p.encBodies[pr])
	if err == nil && status == http.StatusOK && !bytes.Equal(body, p.warmBodies[pr]) {
		err = errors.New("cache hit did not replay the warm-up response")
	}
	o.done = time.Since(start)
	o.latency = o.done - at
	o.status, o.err = status, err
	o.ok = err == nil && status == http.StatusOK
	return o
}

func countOutcome(o outcome, ok, refs, failed *int) {
	switch {
	case o.ok:
		*ok++
	case o.status == http.StatusTooManyRequests:
		*refs++
	default:
		*failed++
	}
}

func summarizeStep(rate float64, aborted bool, reqs []plannedReq, outs []outcome, limitMs float64, windows int) stepResult {
	st := stepResult{rate: rate, aborted: aborted}
	var lat, late []float64
	var end time.Duration
	for _, o := range outs {
		if !o.sent {
			continue
		}
		st.sent++
		countOutcome(o, &st.ok, &st.refs, &st.failed)
		lat = append(lat, ms(o.latency))
		late = append(late, ms(o.late))
		end = max(end, o.done)
	}
	if end > 0 {
		st.achieved = float64(st.ok) / end.Seconds()
	}
	sorted := append([]float64(nil), lat...)
	sort.Float64s(sorted)
	st.p50 = quantile(sorted, 0.50)
	st.p99Valid = tailValid(len(sorted), 0.99)
	if st.p99Valid {
		st.p99 = quantile(sorted, 0.99)
	}
	ls := append([]float64(nil), late...)
	sort.Float64s(ls)
	st.lateP99 = quantile(ls, 0.99)
	// The generator's lateness grows when the last quarter of the step
	// waits longer than the first by half the latency limit: a backlog is
	// building, not just a burst of arrivals queueing for a moment.
	if q := len(late) / 4; q > 0 {
		st.lateGrowing = median(late[len(late)-q:]) > median(late[:q])+limitMs/2
	}
	st.winP50, st.winP99 = windowed(lat, windows)
	// The step is judged on the windowed p99 it reports, so one stall in
	// one window cannot fail it.
	st.pass = !st.aborted && st.p99Valid && st.winP99 < limitMs && st.ok == st.sent && st.sent > 0 && !st.lateGrowing
	return st
}

// summarizeSaturate splits the completions, in time order, into windows
// and takes each window's throughput: its requests over the time from
// the previous window's last completion to its own.
func summarizeSaturate(outs []outcome, windows int) saturateResult {
	var s saturateResult
	var done []time.Duration
	var lat []float64
	for _, o := range outs {
		if !o.sent {
			continue
		}
		s.sent++
		countOutcome(o, &s.ok, &s.refs, &s.failed)
		done = append(done, o.done)
		lat = append(lat, ms(o.latency))
	}
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	sort.Float64s(lat)
	s.p99 = quantile(lat, 0.99)
	size := len(done) / windows
	prev := time.Duration(0)
	for w := 0; w < windows && size > 0; w++ {
		end := done[(w+1)*size-1]
		s.winRPS = append(s.winRPS, float64(size)/(end-prev).Seconds())
		prev = end
	}
	return s
}

// windowed splits the latencies, in schedule order, into n windows and
// returns the median over the windows of each window's p50 and p99.
func windowed(lat []float64, n int) (p50, p99 float64) {
	size := len(lat) / n
	if size == 0 || !tailValid(size, 0.99) {
		return 0, 0
	}
	var p50s, p99s []float64
	for w := 0; w < n; w++ {
		win := append([]float64(nil), lat[w*size:(w+1)*size]...)
		sort.Float64s(win)
		p50s = append(p50s, quantile(win, 0.50))
		p99s = append(p99s, quantile(win, 0.99))
	}
	return median(p50s), median(p99s)
}
