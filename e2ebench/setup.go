package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"meshpram/internal/hmos"
	"meshpram/internal/pram"
	"meshpram/internal/serve"
	"meshpram/internal/sim"
)

// setupReps is how many cold constructions a run times. One cold
// construction takes from tens of microseconds to a few milliseconds,
// so a single one is mostly timer and cache noise; the median of many
// is what setup_s reports.
const setupReps = 41

// setupTimes are the medians of the timed construction layers, in ms,
// and the median of whole constructions, in seconds.
type setupTimes struct {
	scheme, config, backend, server float64
	total                           float64
}

// setupSampler times cold constructions of sc's mesh backend through
// hmos.New, sim.FromScenario, pram.NewBackend and pram.BuildProgram,
// plus serve.New when withServer is set. Each construction starts from
// nothing the previous one built. The host's speed drifts over tens of
// seconds, so an untraced run spreads its constructions over the whole
// run (pace) instead of taking them in one burst.
type setupSampler struct {
	sc         sim.Scenario
	withServer bool

	scheme, config, backend, server, total []float64
}

// take times n more constructions.
func (s *setupSampler) take(n int) error {
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	for i := 0; i < n; i++ {
		runtime.GC() // garbage of earlier work is not this construction's cost
		t0 := time.Now()
		var srv *serve.Server
		if s.withServer {
			srv = serve.New(serve.Config{Workers: 1})
		}
		t1 := time.Now()
		scheme, err := hmos.New(s.sc.Params())
		if err != nil {
			return fmt.Errorf("setup: scheme: %w", err)
		}
		t2 := time.Now()
		cfg, err := sim.FromScenario(s.sc, sim.UseScheme(scheme))
		if err != nil {
			return fmt.Errorf("setup: config: %w", err)
		}
		t3 := time.Now()
		if _, err := pram.NewBackend(pram.BackendMesh, cfg); err != nil {
			return fmt.Errorf("setup: backend: %w", err)
		}
		if _, err := pram.BuildProgram(s.sc.Program, s.sc.Size, s.sc.Seed); err != nil {
			return fmt.Errorf("setup: program: %w", err)
		}
		t4 := time.Now()
		if srv != nil {
			srv.Drain()
		}
		s.server = append(s.server, ms(t1.Sub(t0)))
		s.scheme = append(s.scheme, ms(t2.Sub(t1)))
		s.config = append(s.config, ms(t3.Sub(t2)))
		s.backend = append(s.backend, ms(t4.Sub(t3)))
		s.total = append(s.total, t4.Sub(t0).Seconds())
	}
	return nil
}

// pace takes the constructions due once the given fraction of the run
// is done; pace(1) completes all setupReps.
func (s *setupSampler) pace(done float64) error {
	if !(done < 1) { // also a run of zero seconds
		done = 1
	}
	due := min(int(math.Ceil(done*setupReps)), setupReps)
	return s.take(due - len(s.total))
}

// times returns the medians of the constructions taken.
func (s *setupSampler) times() setupTimes {
	return setupTimes{
		scheme:  median(s.scheme),
		config:  median(s.config),
		backend: median(s.backend),
		server:  median(s.server),
		total:   median(s.total),
	}
}
