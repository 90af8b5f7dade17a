package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"time"

	"meshpram/internal/hmos"
	"meshpram/internal/pram"
	"meshpram/internal/serve"
	"meshpram/internal/sim"
)

// missShape is one kind of scenario a serve-mix miss runs, with its
// recorded PRAM steps and charged mesh cycles. Prefix sums and reduce
// touch addresses that do not depend on their input values, so every
// seed charges the same; odd-even sort writes only the pairs it swaps,
// so its cycles depend on the seed and are not recorded (0).
type missShape struct {
	program   string
	size      int
	pramSteps int
	meshSteps int64
}

// serveShapes are sparse runs on the side-81 machine: few processors
// are busy, so epoch skipping leaves executed cycles far below charged
// cycles and per-step fixed costs dominate.
var serveShapes = []missShape{
	{"prefixsum", 64, 13, 411770},
	{"prefixsum", 128, 15, 476238},
	{"reduce", 128, 15, 474695},
	{"oddevensort", 32, 65, 0},
}

// serveMix is the order misses cycle through, as indexes into
// serveShapes. The slowest shape, odd-even sort, comes twice, so no
// shape boundary falls at the median miss: with four equal shares the
// p50 would sit between the second and third fastest shapes and jump
// between them from run to run.
var serveMix = []int{0, 1, 2, 3, 3}

// missShapeAt is the shape of the i-th miss.
func missShapeAt(i int) missShape { return serveShapes[serveMix[i%len(serveMix)]] }

const (
	// serveMinMisses keeps at least serveMinMisses/20 misses above the
	// reported p95 miss latency. mesh_cycles_per_pram_step averages over
	// the first serveMinMisses misses, a fixed set for each seed.
	serveMinMisses = 200
	// serveTailPct is the miss-latency tail percentile.
	serveTailPct = 95
	// serveReplay is how many of a traced pass's first misses are
	// replayed through serve.Runner and the layer functions: eight
	// cycles of serveMix, the same set for every run of a seed.
	serveReplay = 40
)

func serveScenario(s missShape, seed int64) sim.Scenario {
	return sim.Scenario{
		Side: 81, Q: 3, D: 5, K: 2,
		Program: s.program, Size: s.size, Seed: seed,
		Backend: sim.BackendMesh, Workers: 1,
	}
}

// serveStream is the seeded request stream of one closed-loop client:
// blocks of four requests, one new scenario (a miss) and three repeats
// of uniformly chosen earlier scenarios (hits) in shuffled order. Misses
// cycle through serveMix, so every run has the same shape mix.
type serveStream struct {
	rng    *rand.Rand
	posted []sim.Scenario
	keys   map[string]bool
	block  []bool // pending requests of the current block; true = miss
	misses int
}

func newServeStream(seed int64) *serveStream {
	return &serveStream{rng: rand.New(rand.NewSource(seed)), keys: map[string]bool{}}
}

func (s *serveStream) next() (sim.Scenario, bool) {
	if len(s.block) == 0 {
		s.block = []bool{true, false, false, false}
		if len(s.posted) > 0 {
			s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
		}
	}
	miss := s.block[0]
	s.block = s.block[1:]
	if !miss {
		return s.posted[s.rng.Intn(len(s.posted))], false
	}
	shape := missShapeAt(s.misses)
	for {
		sc := serveScenario(shape, s.rng.Int63n(1<<40))
		if k := sc.Key(); !s.keys[k] {
			s.keys[k] = true
			s.misses++
			s.posted = append(s.posted, sc)
			return sc, true
		}
	}
}

// servePass is one timed closed-loop pass against a fresh server.
type servePass struct {
	requests  int
	handlerNs int64 // time inside ServeHTTP, all requests
	hitMs     []float64
	missMs    []float64
	missSteps []float64 // miss handler ms per PRAM step, one sample per PRAM step
	pramSteps int
	meshSteps int64 // charged cycles of the first minMisses misses
	firstPRAM int   // PRAM steps of the same misses
	misses    []sim.Scenario
	bodies    map[string][]byte
}

// runServePass runs the closed loop until seconds have passed and at
// least minMisses misses are done, taking the set-up constructions ss
// has due between requests (ss may be nil).
func runServePass(rep *report, scheme *hmos.Scheme, seed int64, seconds float64, minMisses int, ss *setupSampler) (*servePass, error) {
	srv := serve.New(serve.Config{Workers: 1, CacheEntries: 1 << 16})
	defer srv.Drain()
	h := srv.Handler()
	st := newServeStream(seed)
	p := &servePass{bodies: map[string][]byte{}}
	start := time.Now()
	for len(p.misses) < minMisses || time.Since(start).Seconds() < seconds {
		if ss != nil {
			if err := ss.pace(time.Since(start).Seconds() / seconds); err != nil {
				return nil, err
			}
		}
		sc, miss := st.next()
		payload, err := json.Marshal(sc)
		if err != nil {
			return nil, err
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(payload))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(t0)
		p.requests++
		p.handlerNs += d.Nanoseconds()
		rep.attempted++
		ms := float64(d.Nanoseconds()) / 1e6
		if rec.Code != http.StatusOK {
			rep.fail("%s %s: HTTP %d: %s", sc.Program, sc.Key()[:12], rec.Code, rec.Body.String())
			if miss {
				p.misses = append(p.misses, sc)
			}
			continue
		}
		body := rec.Body.Bytes()
		key := sc.Key()
		if !miss {
			p.hitMs = append(p.hitMs, ms)
			if !bytes.Equal(body, p.bodies[key]) {
				rep.fail("hit body for %s differs from its miss body", key[:12])
			}
			continue
		}
		shape := missShapeAt(len(p.misses))
		p.misses = append(p.misses, sc)
		p.bodies[key] = body
		steps, cycles := checkMiss(rep, scheme, sc, shape, body)
		p.missMs = append(p.missMs, ms)
		for i := 0; i < steps; i++ {
			p.missSteps = append(p.missSteps, ms/float64(steps))
		}
		p.pramSteps += steps
		if len(p.misses) <= minMisses {
			p.firstPRAM += steps
			p.meshSteps += cycles
		}
	}
	if ss != nil {
		if err := ss.pace(1); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// checkMiss decodes a miss body and compares its output words with the
// ideal PRAM and its step counts with the shape's recorded values. It
// returns the body's PRAM steps and charged mesh cycles.
func checkMiss(rep *report, scheme *hmos.Scheme, sc sim.Scenario, shape missShape, body []byte) (int, int64) {
	var res serve.Result
	if err := json.Unmarshal(body, &res); err != nil || res.Mesh == nil {
		rep.fail("%s: undecodable miss body: %v", sc.Program, err)
		return 0, 0
	}
	m := res.Mesh
	if m.Verdict != serve.VerdictOK {
		rep.fail("%s: verdict %s", sc.Program, m.Verdict)
	}
	if m.PRAMSteps != shape.pramSteps || (shape.meshSteps != 0 && m.MeshSteps != shape.meshSteps) {
		rep.fail("%s %d: %d PRAM steps and %d cycles, recorded %d and %d", sc.Program, sc.Size,
			m.PRAMSteps, m.MeshSteps, shape.pramSteps, shape.meshSteps)
	}
	want, err := idealWords(sc, scheme)
	if err != nil {
		rep.fail("%s: ideal run: %v", sc.Program, err)
	} else if !slices.Equal(m.Words, want) {
		rep.fail("%s %s: mesh output words differ from the ideal PRAM", sc.Program, sc.Key()[:12])
	}
	return m.PRAMSteps, m.MeshSteps
}

// idealWords runs the scenario's program on the ideal PRAM and reads
// its output region.
func idealWords(sc sim.Scenario, scheme *hmos.Scheme) ([]pram.Word, error) {
	cfg, err := sim.FromScenario(sc, sim.UseScheme(scheme))
	if err != nil {
		return nil, err
	}
	b, err := pram.NewBackend(pram.BackendIdeal, cfg)
	if err != nil {
		return nil, err
	}
	prog, err := pram.BuildProgram(sc.Program, sc.Size, sc.Seed)
	if err != nil {
		return nil, err
	}
	if _, err := pram.Run(prog, b); err != nil {
		return nil, err
	}
	o, ok := prog.(pram.Outputs)
	if !ok {
		return nil, fmt.Errorf("program %s has no output region", sc.Program)
	}
	base, n := o.OutputRange()
	return pram.ReadWords(b, base, n)
}

// runServe runs serve-mix. An untraced run makes at least minMisses
// misses; a traced run replays its pass's first replayN misses.
func runServe(rep *report, seed int64, seconds float64, traced bool, out string, minMisses, replayN int) error {
	sc0 := serveScenario(serveShapes[0], seed)
	ss := &setupSampler{sc: sc0, withServer: true}
	scheme, err := hmos.New(sc0.Params())
	if err != nil {
		return err
	}
	if !traced {
		p, err := runServePass(rep, scheme, seed, seconds, minMisses, ss)
		if err != nil {
			return err
		}
		pct, missTail, err := tail(p.missMs, serveTailPct)
		if err != nil {
			rep.fail("%v", err)
		}
		_, stepTail, err := tail(p.missSteps, serveTailPct)
		if err != nil {
			rep.fail("%v", err)
		}
		busy := float64(p.handlerNs) / 1e9
		rep.set("pram_steps_per_s", float64(p.pramSteps)/busy)
		rep.set("step_ms.p50", median(p.missSteps))
		rep.set("step_ms.tail", stepTail)
		rep.set("req_per_s", float64(p.requests)/busy)
		rep.set("hit_ms.p50", median(p.hitMs))
		rep.set("miss_ms.p50", median(p.missMs))
		rep.set("miss_ms.tail", missTail)
		rep.set("mesh_cycles_per_pram_step", float64(p.meshSteps)/float64(p.firstPRAM))
		rep.set("setup_s", ss.times().total)
		rep.set("peak_rss_mb", peakRSSMB())
		rep.set("ok_frac", okFrac(rep))
		rep.note("requests=%d hits=%d misses=%d tail=p%g cycles=%d/%d steps over the first misses",
			p.requests, len(p.hitMs), len(p.missMs), pct, p.meshSteps, p.firstPRAM)
		return nil
	}

	if err := ss.take(setupReps); err != nil {
		return err
	}
	setSetupLayers(rep, ss.times())
	p, err := runServePass(rep, scheme, seed, seconds/2, replayN, nil)
	if err != nil {
		return err
	}
	rep.set("serve.hit_ratio", float64(len(p.hitMs))/float64(p.requests))
	replay := p.misses[:replayN]
	if err := replayRunner(rep, replay, p); err != nil {
		return err
	}

	// The server takes no trace sink, so the span rollup and the tracing
	// overhead come from replaying the same misses through the layer
	// functions, once untraced and once traced.
	replayLaps := func(extra ...sim.Option) (*stepPass, error) {
		lp := &stepPass{}
		for _, sc := range replay {
			lr, err := lap(rep, lp, sc, append([]sim.Option{sim.UseScheme(scheme)}, extra...))
			if err != nil {
				return nil, err
			}
			lp.laps = append(lp.laps, lr)
		}
		return lp, nil
	}
	plain, err := replayLaps()
	if err != nil {
		return err
	}
	sink := newSpanSink()
	var tp *stepPass
	rt, err := measureRuntime(func() error {
		var err error
		tp, err = replayLaps(sim.TraceSink(sink))
		return err
	})
	if err != nil {
		return err
	}
	setTracedLayers(rep, sink.r, rt, tp.laps)
	// A replayed miss is one request: the request rate and the step rate
	// change by the same share.
	overhead := 1 - float64(plain.stepNs)/float64(tp.stepNs)
	rep.set("trace.overhead.pram_steps_per_s", overhead)
	rep.set("trace.overhead.req_per_s", overhead)
	return writeTrace(out, "serve-mix", sink)
}

// replayRunner runs the replayed misses through serve.Runner and
// serve.EncodeResult, checks the bodies against the server's, and
// reports the run and encode time per miss. Transport time is the mean,
// over the same misses, of a cache-miss POST to a second warm server
// minus the Runner time of the same scenario, each pair timed back to
// back. It resolves only what exceeds the run-to-run noise of a miss,
// about a millisecond.
func replayRunner(rep *report, replay []sim.Scenario, p *servePass) error {
	r := serve.NewRunner()
	srv := serve.New(serve.Config{Workers: 1})
	defer srv.Drain()
	h := srv.Handler()
	post := func(sc sim.Scenario) (time.Duration, error) {
		payload, err := json.Marshal(sc)
		if err != nil {
			return 0, err
		}
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(payload)))
		d := time.Since(t0)
		if rec.Code != http.StatusOK {
			return d, fmt.Errorf("replay POST: HTTP %d", rec.Code)
		}
		return d, nil
	}
	// Warm both scheme caches, as a server worker is warm after its
	// first request.
	if _, err := r.RunBody(replay[0]); err != nil {
		return err
	}
	if _, err := post(replay[0]); err != nil {
		return err
	}
	var runNs, encNs, transportNs int64
	for i, sc := range replay[1:] {
		// Alternate which of the pair goes first: the second run of a
		// scenario finds warmer caches.
		var d time.Duration
		var err error
		if i%2 == 1 {
			if d, err = post(sc); err != nil {
				return err
			}
		}
		t0 := time.Now()
		res, err := r.Run(sc)
		t1 := time.Now()
		if err != nil {
			return err
		}
		body, err := serve.EncodeResult(res)
		run := time.Since(t0)
		if err != nil {
			return err
		}
		runNs += run.Nanoseconds()
		encNs += time.Since(t1).Nanoseconds()
		if !bytes.Equal(body, p.bodies[sc.Key()]) {
			rep.fail("runner body for %s differs from the server's", sc.Key()[:12])
		}
		if i%2 == 0 {
			if d, err = post(sc); err != nil {
				return err
			}
		}
		transportNs += (d - run).Nanoseconds()
	}
	n := float64(len(replay) - 1)
	rep.set("serve.run_ms_per_miss", float64(runNs)/1e6/n)
	rep.set("serve.encode_ms_per_miss", float64(encNs)/1e6/n)
	rep.set("serve.transport_ms_per_miss", float64(transportNs)/1e6/n)
	return nil
}
