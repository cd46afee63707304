package sweep

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
)

func TestRunOrdersResults(t *testing.T) {
	points := []int{10, 20, 30, 40, 50, 60, 70}
	for _, workers := range []int{0, 1, 2, 3, 16} {
		got := Run(points, workers, func(i, pt int) int { return pt + i })
		for i, pt := range points {
			if got[i] != pt+i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, got[i], pt+i)
			}
		}
	}
}

func TestRunEmpty(t *testing.T) {
	if got := Run(nil, 4, func(i, pt int) int { return pt }); len(got) != 0 {
		t.Fatalf("empty sweep returned %d results", len(got))
	}
}

func TestRunUsesMultipleWorkers(t *testing.T) {
	// With more points than workers, the pool must actually fan out:
	// track the peak number of in-flight points.
	var inFlight, peak atomic.Int64
	block := make(chan struct{})
	var release sync.Once
	Run(Indices(8), 4, func(i, pt int) int {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		if n >= 2 {
			// Two points can see the overlap at once; close exactly once.
			release.Do(func() { close(block) })
		}
		<-block // everyone holds until two points overlap
		inFlight.Add(-1)
		return pt
	})
	if peak.Load() < 2 {
		t.Fatalf("peak concurrency %d, want >= 2", peak.Load())
	}
}

func TestRunPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic in a point did not propagate")
		}
		if !strings.Contains(fmt.Sprint(r), "boom") {
			t.Fatalf("panic value %v does not carry the cause", r)
		}
	}()
	Run(Indices(16), 4, func(i, pt int) int {
		if i == 7 {
			panic("boom")
		}
		return pt
	})
}

func TestSeedDerivation(t *testing.T) {
	seen := map[uint64]int{}
	for _, base := range []uint64{0, 1, 42} {
		for i := 0; i < 100; i++ {
			s := Seed(base, i)
			if s == 0 {
				t.Fatalf("Seed(%d,%d) = 0", base, i)
			}
			if prev, dup := seen[s]; dup {
				t.Fatalf("Seed collision: %d (point %d vs earlier %d)", s, i, prev)
			}
			seen[s] = i
			if s != Seed(base, i) {
				t.Fatalf("Seed(%d,%d) not stable", base, i)
			}
		}
	}
}

// simPoint runs one small but non-trivial simulation: a producer/consumer
// pair plus timers, exercising the kernel's event pool, at-now fast path,
// and waiter machinery inside a worker goroutine.
func simPoint(seed uint64) int64 {
	env := sim.NewEnv()
	q := sim.NewQueue(env)
	var sum int64
	env.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			q.Put(int64(seed%97) + int64(i))
			p.Wait(sim.Time(seed%13+1) * sim.Microsecond)
		}
	})
	env.Spawn("consumer", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			v, ok := q.GetTimeout(p, sim.Second)
			if !ok {
				return
			}
			sum += v.(int64)
		}
	})
	env.Run()
	env.Shutdown()
	return sum + int64(env.EventsRun())
}

// TestRunConcurrentEnvs is the dedicated race-detector workout for the
// worker pool: many sweep points, each owning a private sim.Env, run
// concurrently; results must match a serial reference exactly. Each Env is
// confined to the one worker goroutine that created it — this test (under
// `go test -race`) is what enforces that contract.
func TestRunConcurrentEnvs(t *testing.T) {
	points := make([]uint64, 24)
	for i := range points {
		points[i] = Seed(7, i)
	}
	serial := Run(points, 1, func(i int, seed uint64) int64 { return simPoint(seed) })
	for _, workers := range []int{2, 8} {
		parallel := Run(points, workers, func(i int, seed uint64) int64 { return simPoint(seed) })
		for i := range serial {
			if parallel[i] != serial[i] {
				t.Fatalf("workers=%d: point %d = %d, serial reference %d",
					workers, i, parallel[i], serial[i])
			}
		}
	}
}
