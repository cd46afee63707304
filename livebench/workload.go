package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/livenet"
)

const chunkBytes = 256 << 10 // livenet's default FragBytes: one manifest chunk

// workload is one load the benchmark drives: a cluster layout, a
// closed loop of clients, and the job specs they submit.
type workload struct {
	lay     layout
	clients int
	image   int // BinaryBytes of every job
	chunks  int // ChunksSent every measured launch must report
	// warm lists the unmeasured set-up launches; next is the measured
	// launch a client submits. Both draw only on the seeded streams.
	warm func(w *workload, s *streams) []livenet.JobSpec
	next func(w *workload, s *streams, client int) livenet.JobSpec
}

var workloads = map[string]*workload{
	// The bulk data plane: every launch streams a never-seen 12 MiB
	// image into full caches, so every NM verifies, relays, Puts and
	// evicts all 48 chunks.
	"cold-stream": {
		lay:     layout{perPart: 16, cacheBytes: 32 << 20},
		clients: 1,
		image:   12 << 20,
		chunks:  48,
		warm: func(w *workload, s *streams) []livenet.JobSpec {
			// Enough distinct images to fill every cache to its cap.
			var specs []livenet.JobSpec
			for b := int64(0); b < w.lay.cacheBytes; b += int64(w.image) {
				specs = append(specs, w.spec(s.fresh(s.setup)))
			}
			return specs
		},
		next: func(w *workload, s *streams, c int) livenet.JobSpec {
			return w.spec(s.fresh(s.client[c]))
		},
	},
	// The per-job control path: two clients relaunch one cached base
	// image with a single chunk patched, so each launch streams one chunk
	// and everything else is Submit/Plan/Launch/Term and the HAVE fold.
	"delta-pair": {
		lay:     layout{perPart: 16, cacheBytes: 32 << 20},
		clients: min(2, runtime.NumCPU()),
		image:   12 << 20,
		chunks:  1,
		warm: func(w *workload, s *streams) []livenet.JobSpec {
			return []livenet.JobSpec{w.spec(s.base), s.patched(w.spec(s.base), s.setup), s.patched(w.spec(s.base), s.setup)}
		},
		next: func(w *workload, s *streams, c int) livenet.JobSpec {
			return s.patched(w.spec(s.base), s.client[c])
		},
	},
	// Node-count-bound work: 256 lite NMs behind a 4-leaf federation,
	// heartbeats and 20 ms gang strobes on every leaf, relaunching a
	// 1 MiB image every NM already caches.
	"wide-gang": {
		lay:     layout{partitions: 4, perPart: 64, fanout: 4, strobe: 20 * time.Millisecond, lite: true, cacheBytes: 4 << 20},
		clients: 1,
		image:   1 << 20,
		chunks:  0,
		warm: func(w *workload, s *streams) []livenet.JobSpec {
			// The first launch streams the image; the second is a warm
			// relaunch that opens every lazily built path once.
			return []livenet.JobSpec{w.spec(s.base), w.spec(s.base)}
		},
		next: func(w *workload, s *streams, c int) livenet.JobSpec {
			return w.spec(s.base)
		},
	},
}

// spec is a whole-cluster job of the workload's image with content seed.
func (w *workload) spec(seed uint64) livenet.JobSpec {
	return livenet.JobSpec{
		Name: "livebench", BinaryBytes: w.image, Nodes: w.lay.nodes(), PEsPerNode: 1,
		Program: livenet.ProgramSpec{Kind: "exit"}, ImageSeed: seed,
	}
}

// streams derives every input from the workload seed: one stream for
// set-up, one per client, and a base image seed.
type streams struct {
	base   uint64
	setup  *rand.Rand
	client []*rand.Rand
}

func newStreams(seed uint64, clients int) *streams {
	s := &streams{setup: rand.New(rand.NewPCG(seed, 0))}
	s.base = s.fresh(s.setup)
	for c := 0; c < clients; c++ {
		s.client = append(s.client, rand.New(rand.NewPCG(seed, uint64(c)+1)))
	}
	return s
}

// fresh draws a content seed; zero would select livenet's legacy
// job-keyed images.
func (s *streams) fresh(r *rand.Rand) uint64 { return r.Uint64() | 1 }

// patched is spec with one chunk, picked from r, given new content.
func (s *streams) patched(spec livenet.JobSpec, r *rand.Rand) livenet.JobSpec {
	spec.ImagePatch = map[int]uint64{r.IntN(spec.BinaryBytes / chunkBytes): s.fresh(r)}
	return spec
}

// sample is one launch as the client saw it.
type sample struct {
	client int
	start  time.Time
	wall   time.Duration
	queued time.Duration // Report.Queued; on a federation, submit → first leaf accept
	status time.Duration // traced runs: the QueryStatus probe after the launch
	rep    livenet.Report
	fail   string // the first check that failed; "" when all passed
}

// runner drives one booted cluster and checks every launch.
type runner struct {
	w      *workload
	cl     *cluster
	tap    *tap // nil when untraced
	s      *streams
	refCRC uint32 // wide-gang: every relaunch must deliver the warm-up image

	started, ok atomic.Int64 // submissions made and returned without error
	baseLaunch  int          // NM launch count when the counts above were zeroed
}

// prepare boots a cluster for w and runs its warm-up launches.
func prepare(w *workload, seed uint64, tp *tap) (*runner, error) {
	cl, err := boot(w.lay, tp)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	r := &runner{w: w, cl: cl, tap: tp, s: newStreams(seed, w.clients)}
	r.baseLaunch = cl.counters().launches
	for i, spec := range w.warm(w, r.s) {
		s := r.launch(0, spec, -1)
		if s.fail != "" {
			cl.teardown()
			return nil, fmt.Errorf("warm-up launch %d: %s", i, s.fail)
		}
		if w.lay.partitions > 0 {
			r.refCRC, _ = r.digestCRC(s.rep.JobID)
		}
	}
	r.started.Store(0)
	r.ok.Store(0)
	r.baseLaunch = cl.counters().launches
	return r, nil
}

// measure runs the closed loop for d and returns every launch in start
// order, the window from start to the last completion, and the process
// CPU time spent in it.
func (r *runner) measure(d time.Duration) (samples []sample, window, cpu time.Duration) {
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	per := make([][]sample, r.w.clients)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// At least one launch each, however short the window.
			for {
				per[c] = append(per[c], r.launch(c, r.w.next(r.w, r.s, c), r.w.chunks))
				if !time.Now().Before(deadline) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	window, cpu = time.Since(start), cpuTime()-cpu0
	for _, p := range per {
		samples = append(samples, p...)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].start.Before(samples[j].start) })
	return samples, window, cpu
}

// launch submits spec the way the storm client does and checks the
// outcome. expect is the ChunksSent the launch must report (-1: any).
func (r *runner) launch(client int, spec livenet.JobSpec, expect int) sample {
	fed := r.cl.fed != nil
	var frags0 int
	if fed {
		frags0 = r.cl.counters().fragsWritten
	}
	conv0 := r.cl.convictions.Load()
	if r.tap != nil {
		r.tap.firstAccept.Store(0)
	}
	r.started.Add(1)
	s := sample{client: client, start: time.Now()}
	rep, err := livenet.SubmitJob(r.cl.addr, spec)
	s.wall = time.Since(s.start)
	s.rep, s.queued = rep, rep.Queued
	if fed && r.tap != nil {
		// The root does not forward its leaves' Queued; time the root's
		// admission and split up to the first delegated submit instead.
		if at := r.tap.firstAccept.Load(); at > 0 {
			s.queued = time.Unix(0, at).Sub(s.start)
		}
	}
	if err == nil {
		r.ok.Add(1)
	}
	s.fail = r.check(spec, rep, err, expect, frags0, conv0)
	if r.tap != nil {
		t0 := time.Now()
		_, err := livenet.QueryStatus(r.cl.addr)
		s.status = time.Since(t0)
		if err != nil && s.fail == "" {
			s.fail = "status query: " + err.Error()
		}
	}
	return s
}

func (r *runner) check(spec livenet.JobSpec, rep livenet.Report, err error, expect, frags0 int, conv0 int64) string {
	if err != nil {
		return "submit: " + err.Error()
	}
	if len(rep.Failed) > 0 {
		return fmt.Sprintf("report lists failed nodes %v", rep.Failed)
	}
	if r.cl.fed == nil {
		if expect >= 0 && rep.ChunksSent != expect {
			return fmt.Sprintf("streamed %d chunks, want %d", rep.ChunksSent, expect)
		}
	} else if expect >= 0 {
		// The root's Report carries no ChunksSent: count the fragments
		// the NMs verified instead (one client, so all of them are ours).
		if n := r.cl.counters().fragsWritten - frags0; n != expect*spec.Nodes {
			return fmt.Sprintf("NMs verified %d fragments, want %d", n, expect*spec.Nodes)
		}
	}
	crc, fail := r.digestCRC(rep.JobID)
	if fail != "" {
		return fail
	}
	if r.refCRC != 0 && crc != r.refCRC {
		return fmt.Sprintf("image CRC %08x differs from the warm-up image's %08x", crc, r.refCRC)
	}
	// Every returned job has forked all its processes; no job not yet
	// submitted can have forked any.
	// The lower bound is read before the count and the upper after it,
	// so a concurrent client's launch cannot slip between them.
	per := spec.Nodes * spec.PEsPerNode
	lo := int(r.ok.Load()) * per
	got := r.cl.counters().launches - r.baseLaunch
	hi := int(r.started.Load()) * per
	if got < lo || got > hi {
		return fmt.Sprintf("NMs forked %d processes, want %d..%d", got, lo, hi)
	}
	if n := r.cl.convictions.Load() - conv0; n > 0 {
		return fmt.Sprintf("%d healthy nodes convicted during the launch", n)
	}
	return ""
}

// digestCRC checks that every NM holds a complete image for the job,
// all with one CRC, and returns it. On a federation the NMs of leaf p
// know the job by its leaf-scoped ID; every job spans every leaf, so
// leaf job k is root job k.
func (r *runner) digestCRC(job int) (crc uint32, fail string) {
	for i, nm := range r.cl.nms {
		id := job
		if r.cl.fed != nil {
			id = leafJobBase(i/r.w.lay.perPart) + job
		}
		d, ok := nm.ImageDigest(id)
		switch {
		case !ok:
			return 0, fmt.Sprintf("node %d holds no image for job %d", nm.Node(), id)
		case d.Bytes != r.w.image:
			return 0, fmt.Sprintf("node %d image for job %d is %d bytes, want %d", nm.Node(), id, d.Bytes, r.w.image)
		case i == 0:
			crc = d.CRC
		case d.CRC != crc:
			return 0, fmt.Sprintf("node %d image CRC %08x differs from node %d's %08x", nm.Node(), d.CRC, r.cl.nms[0].Node(), crc)
		}
	}
	return crc, ""
}
