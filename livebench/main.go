// Command livebench is the launch benchmark for the live plane
// (internal/livenet). It boots an in-process cluster through livenet's
// public API, submits jobs over TCP with livenet.SubmitJob the way the
// storm client does, checks every launch, and prints one JSON result
// line. See README.md in this directory for the workloads and metrics.
//
//	go run . --workload cold-stream --seed 1 --seconds 30 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

var procStart = time.Now()

const (
	// setups is how many clusters an untraced run boots in turn, each
	// measured for an equal share of the window: the launches pool
	// across clusters, and setup_s and heap_mib are medians over them.
	setups = 5
	// spanDir, relative to the checkout root, receives traced runs' spans.
	spanDir = ".bench_build/livebench"
)

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
	name := flag.String("workload", "", "cold-stream, delta-pair or wide-gang")
	seed := flag.Uint64("seed", 1, "workload seed: every image seed and patched chunk derives from it")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	traced := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "livebench: bad arguments (workload %q)\n", *name)
		flag.Usage()
		os.Exit(2)
	}
	env, err := json.Marshal(map[string]any{"env": hostEnv(), "workload": *name, "seed": *seed, "trace": *traced})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(env))
	window := time.Duration(*seconds * float64(time.Second))
	var res result
	if *traced == 0 {
		res, err = runPlain(w, *seed, window)
	} else {
		spans := filepath.Join(spanDir, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
		res, err = runTraced(w, *seed, window, spans)
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "livebench: %v\n", err)
	os.Exit(1)
}

// runPlain is the untraced run: the end-to-end metrics.
func runPlain(w *workload, seed uint64, window time.Duration) (result, error) {
	var setupS, heapMiB []float64
	var samples []sample
	var span, cpu time.Duration
	hung := 0
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = procStart
		}
		r, err := prepare(w, seed, nil)
		if err != nil {
			return result{}, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		heapMiB = append(heapMiB, float64(heapNow())/(1<<20))
		ss, sp, c := r.measure(window / time.Duration(setups))
		samples, span, cpu = append(samples, ss...), span+sp, cpu+c
		hung += r.cl.teardown()
	}
	reportHangs(hung)
	walls := durations(samples, wall)
	n := float64(len(samples))
	failed := reportFailures(samples)
	return result{
		Correct: failed == 0, Attempted: len(samples), Failed: failed,
		Metrics: map[string]metric{
			"launch_p50_ms":     {ms(quantile(walls, 0.5)), "ms"},
			"launch_p90_ms":     {ms(quantile(walls, 0.9)), "ms"},
			"launches_per_s":    {n / span.Seconds(), "1/s"},
			"cpu_ms_per_launch": {ms(cpu) / n, "ms"},
			"ok_frac":           {(n - float64(failed)) / n, "fraction"},
			"setup_s":           {median(setupS), "s"},
			"heap_mib":          {median(heapMiB), "MiB"},
		},
	}, nil
}

// runTraced measures half the window untraced as the overhead reference,
// then boots a cluster with counting wrappers and measures the other
// half with status probes and spans: the per-layer metrics.
func runTraced(w *workload, seed uint64, window time.Duration, spansPath string) (result, error) {
	r, err := prepare(w, seed, nil)
	if err != nil {
		return result{}, err
	}
	plain, _, _ := r.measure(window / 2)
	hung := r.cl.teardown()

	g0, h0 := runtime.NumGoroutine(), heapNow()
	tp := &tap{}
	if r, err = prepare(w, seed, tp); err != nil {
		return result{}, err
	}
	nodes := float64(w.lay.nodes())
	heapPerNM := (float64(heapNow()) - float64(h0)) / nodes / 1024
	goroutinesPerNM := float64(runtime.NumGoroutine()-g0) / nodes
	nc0, tc0, ctl0 := r.cl.counters(), tp.counters(), r.cl.ctl()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	samples, span, _ := r.measure(window / 2)
	runtime.ReadMemStats(&ms1)
	nc, tc, ctl1 := r.cl.counters().sub(nc0), tp.counters(), r.cl.ctl()
	convictions := r.cl.convictions.Load()
	origin := samples[0].start
	hung += r.cl.teardown()
	reportHangs(hung)
	if err := writeSpans(spansPath, samples, origin); err != nil {
		return result{}, err
	}

	n := float64(len(samples))
	per := func(v float64) float64 { return v / n }
	var sendBytes, chunks int64
	windowPeak := 0
	violations := 0
	for i := range samples {
		s := &samples[i]
		sendBytes += s.rep.SendBytes
		chunks += int64(s.rep.ChunksSent)
		windowPeak = max(windowPeak, s.rep.WindowPeak)
		if s.fail == "" && !phasesAddUp(s) {
			if violations == 0 {
				fmt.Fprintf(os.Stderr, "livebench: job %d fails the phase self-check: wall %v queued %v send %v execute %v total %v\n",
					s.rep.JobID, s.wall, s.rep.Queued, s.rep.Send, s.rep.Execute, s.rep.Total)
			}
			violations++
		}
	}
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "livebench: %d of %d launches fail the phase self-check\n", violations, len(samples))
	}
	rootEgress := 0.0
	if r.cl.fed != nil {
		rootEgress = per(float64(sendBytes))
	}
	hitRatio := 0.0
	if look := nc.hits + nc.misses; look > 0 {
		hitRatio = float64(nc.hits) / float64(look)
	}
	meanOf := func(sum0, sum1 time.Duration, n0, n1 int64) float64 {
		if n1 == n0 {
			return 0
		}
		return ms((sum1 - sum0) / time.Duration(n1-n0))
	}
	queued := durations(samples, func(s *sample) time.Duration { return s.queued })
	failed := reportFailures(plain) + reportFailures(samples)
	all := len(plain) + len(samples)
	m := map[string]metric{
		"client.overhead_ms":  {medianMS(samples, func(s *sample) time.Duration { return s.wall - s.rep.Queued - s.rep.Total }), "ms"},
		"rpc.status_ms":       {medianMS(samples, func(s *sample) time.Duration { return s.status }), "ms"},
		"admit.queued_p50_ms": {ms(quantile(queued, 0.5)), "ms"},
		"admit.queued_p90_ms": {ms(quantile(queued, 0.9)), "ms"},

		"mm.send_ms":                 {medianMS(samples, func(s *sample) time.Duration { return s.rep.Send }), "ms"},
		"mm.execute_ms":              {medianMS(samples, func(s *sample) time.Duration { return s.rep.Execute }), "ms"},
		"mm.egress_bytes_per_launch": {per(float64(sendBytes)), "B"},
		"mm.window_peak":             {float64(windowPeak), "chunks"},
		"mm.chunks_sent_per_launch":  {per(float64(chunks)), "chunks"},

		"nm.frags_written_per_launch": {per(float64(nc.fragsWritten)), "count"},
		"nm.frags_relayed_per_launch": {per(float64(nc.fragsRelayed)), "count"},

		"cache.hit_ratio":              {hitRatio, "fraction"},
		"cache.evictions_per_launch":   {per(float64(nc.evictions)), "count"},
		"cache.bytes_saved_per_launch": {per(float64(nc.bytesSaved)), "B"},

		"net.mm_nm_bytes_per_launch":   {per(float64(tc.bytes[mmToNM] - tc0.bytes[mmToNM])), "B"},
		"net.nm_nm_bytes_per_launch":   {per(float64(tc.bytes[nmToNM] - tc0.bytes[nmToNM])), "B"},
		"net.nm_mm_bytes_per_launch":   {per(float64(tc.bytes[nmToMM] - tc0.bytes[nmToMM])), "B"},
		"net.writes_per_launch":        {per(float64(tc.writes - tc0.writes)), "count"},
		"net.write_wait_ms_per_launch": {per(ms(time.Duration(tc.waitNs - tc0.waitNs))), "ms"},
		"net.dials_per_launch":         {per(float64(tc.dials - tc0.dials)), "count"},

		"ctl.hb_rtt_mean_ms":      {meanOf(ctl0.hbSum, ctl1.hbSum, ctl0.hbN, ctl1.hbN), "ms"},
		"ctl.hb_rtt_max_ms":       {ms(ctl1.hbMax), "ms"},
		"ctl.strobe_mean_ms":      {meanOf(ctl0.strobeSum, ctl1.strobeSum, ctl0.strobeN, ctl1.strobeN), "ms"},
		"ctl.strobe_max_ms":       {ms(ctl1.strobeMax), "ms"},
		"ctl.egress_frames_per_s": {float64(ctl1.frames-ctl0.frames) / span.Seconds(), "1/s"},
		"ctl.egress_bytes_per_s":  {float64(ctl1.bytes-ctl0.bytes) / span.Seconds(), "B/s"},
		"ctl.convictions":         {float64(convictions), "count"},

		"fed.root_egress_bytes_per_launch": {rootEgress, "B"},

		"go.alloc_bytes_per_launch": {per(float64(ms1.TotalAlloc - ms0.TotalAlloc)), "B"},
		"go.gc_cycles_per_launch":   {per(float64(ms1.NumGC - ms0.NumGC)), "count"},
		"go.heap_kib_per_nm":        {heapPerNM, "KiB"},
		"go.goroutines_per_nm":      {goroutinesPerNM, "count"},

		"trace.overhead_frac":        {medianMS(samples, wall)/medianMS(plain, wall) - 1, "fraction"},
		"trace.selfcheck_violations": {float64(violations), "count"},
		"teardown.hangs":             {float64(hung), "count"},
		"failed_frac":                {float64(failed) / float64(all), "fraction"},
	}
	return result{Correct: failed == 0, Attempted: all, Failed: failed, Metrics: m}, nil
}

// phasesAddUp is the Report self-check: the admission wait, send and
// execute phases fit inside the client's wall time, and Total is Send +
// Execute within 5%.
func phasesAddUp(s *sample) bool {
	r := s.rep
	if r.Queued+r.Send+r.Execute > s.wall {
		return false
	}
	d := r.Total - r.Send - r.Execute
	return d.Abs() <= r.Total/20
}

// reportFailures counts failed launches and prints each distinct cause.
func reportFailures(samples []sample) int {
	causes := map[string]int{}
	n := 0
	for i := range samples {
		if f := samples[i].fail; f != "" {
			n++
			causes[f]++
		}
	}
	for f, k := range causes {
		fmt.Fprintf(os.Stderr, "livebench: %d launch(es) failed: %s\n", k, f)
	}
	return n
}

func reportHangs(hung int) {
	if hung > 0 {
		fmt.Fprintf(os.Stderr, "livebench: %d cluster component(s) still closing at the teardown deadline\n", hung)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func wall(s *sample) time.Duration { return s.wall }

// medianMS is the median of f over the samples, in milliseconds.
func medianMS(ss []sample, f func(*sample) time.Duration) float64 {
	return ms(quantile(durations(ss, f), 0.5))
}

// durations returns f of every sample, sorted.
func durations(ss []sample, f func(*sample) time.Duration) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i := range ss {
		out[i] = f(&ss[i])
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostEnv is the env block every result records. The commit comes from
// the LIVEBENCH_COMMIT variable run.sh sets ("unknown" outside a git
// checkout); source_sha256 identifies the program source either way.
func hostEnv() map[string]any {
	commit := os.Getenv("LIVEBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	var uts syscall.Utsname
	kernel := "unknown"
	if syscall.Uname(&uts) == nil {
		var b []byte
		for _, c := range uts.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		kernel = string(b)
	}
	return map[string]any{
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"go":            runtime.Version(),
		"commit":        commit,
		"kernel":        kernel,
		"source_sha256": sourceDigest(),
	}
}

// sourceDigest hashes go.mod and every .go file under internal/ and
// cmd/ of the checkout the benchmark runs from.
func sourceDigest() string {
	h := sha256.New()
	files := []string{"go.mod"}
	for _, dir := range []string{"internal", "cmd"} {
		filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return nil
		})
	}
	sort.Strings(files)
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			return "unknown"
		}
		io.WriteString(h, p+"\x00")
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
