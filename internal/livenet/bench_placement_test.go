package livenet

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/livenet/faultconn"
	"repro/internal/metrics"
	"repro/internal/place"
)

// liteFlatCluster boots one flat MM over n hub-routed lite NMs — the
// dense in-process profile the federation benches use, but without a
// root, so the flat placement path itself is what scales to 1024
// registered nodes.
func liteFlatCluster(b *testing.B, n int, cfg MMConfig) (*MM, func()) {
	b.Helper()
	hub, err := NewPeerHub("")
	if err != nil {
		b.Fatal(err)
	}
	cfg.Lite = true
	mm, err := NewMM("127.0.0.1:0", cfg)
	if err != nil {
		hub.Close()
		b.Fatal(err)
	}
	var nms []*NM
	done := false
	shutdown := func() {
		if done {
			return
		}
		done = true
		for _, nm := range nms {
			nm.Close()
		}
		mm.Close()
		hub.Close()
	}
	b.Cleanup(shutdown)
	for i := 0; i < n; i++ {
		nm, err := NewNMConfig(mm.Addr(), i, 4, NMConfig{Hub: hub, Lite: true})
		if err != nil {
			b.Fatal(err)
		}
		nms = append(nms, nm)
	}
	deadline := time.Now().Add(30 * time.Second)
	for len(mm.NMs()) < n {
		if time.Now().After(deadline) {
			b.Fatalf("only %d of %d NMs registered", len(mm.NMs()), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return mm, shutdown
}

// BenchmarkPlacement measures the resource-aware placement engine where
// it actually runs: inside the MM, under mm.mu, against real registered
// membership.
//
// throughput/* drives placeJob at 64–1024 registered nodes with a
// rolling window of resident gangs (place → commit, release the oldest)
// and reports placements/sec plus per-placement p50/p99 — the numbers
// that must dwarf the multi-tenant admission rates so placement never
// becomes the admission bottleneck at scale.
//
// locality-launch/* is the end-to-end payoff: the same cold striped
// launch of a communicating gang on a 16-node cluster whose NM→NM links are
// write-delay shaped proportionally to the hop distance in the fanout-4
// heap topology (faultconn, per-frame). The idle nodes are scattered
// across the leaf groups, so load-only spread placement chases them
// cross-rack while locality accepts loaded-but-adjacent nodes; the gang
// then pays the difference in relay hops on every chunk. Locality must
// beat spread by >=1.2x on cold send time.
//
// Merges a `placement` section into BENCH_livenet.json.
//
//	go test -run '^$' -bench BenchmarkPlacement -benchtime=1x ./internal/livenet/
func BenchmarkPlacement(b *testing.B) {
	type thrPoint struct {
		Nodes            int     `json:"nodes"`
		Policy           string  `json:"policy"`
		Gang             int     `json:"gang"`
		PlacementsPerSec float64 `json:"placements_per_sec"`
		P50US            float64 `json:"p50_us"`
		P99US            float64 `json:"p99_us"`
	}
	var thrSeries []thrPoint
	const (
		thrGang   = 16
		thrBatch  = 4096
		thrWindow = 32 // resident gangs before the oldest releases
	)
	demand := place.Vec{CPU: 1, Mem: 256, Net: 2}
	for _, n := range []int{64, 256, 1024} {
		n := n
		mm, shutdown := liteFlatCluster(b, n, MMConfig{Fanout: 4})
		for _, pol := range []place.Policy{place.Spread, place.Locality} {
			pol := pol
			b.Run(fmt.Sprintf("throughput/nodes=%d/policy=%s", n, pol), func(b *testing.B) {
				best := thrPoint{Nodes: n, Policy: pol.String(), Gang: thrGang}
				for i := 0; i < b.N; i++ {
					mm.mu.Lock()
					prevPol := mm.placePol
					mm.placePol = pol
					window := make([][]int, thrWindow)
					var lat metrics.Sample
					var failed error
					t0 := time.Now()
					for op := 0; op < thrBatch; op++ {
						if old := window[op%thrWindow]; old != nil {
							for _, id := range old {
								mm.place.Release(id, demand)
							}
						}
						s0 := time.Now()
						spec := JobSpec{Nodes: thrGang, Demand: demand}
						links, err := mm.placeJob(&spec, nil)
						lat.Add(float64(time.Since(s0)) / float64(time.Microsecond))
						if err != nil {
							failed = err
							break
						}
						ids := make([]int, len(links))
						for k, l := range links {
							ids[k] = l.node
							mm.place.Commit(l.node, demand)
						}
						window[op%thrWindow] = ids
					}
					elapsed := time.Since(t0)
					for _, ids := range window {
						for _, id := range ids {
							mm.place.Release(id, demand)
						}
					}
					mm.placePol = prevPol
					mm.mu.Unlock()
					if failed != nil {
						b.Fatal(failed)
					}
					p := thrPoint{
						Nodes: n, Policy: pol.String(), Gang: thrGang,
						PlacementsPerSec: thrBatch / elapsed.Seconds(),
						P50US:            lat.Percentile(50),
						P99US:            lat.Percentile(99),
					}
					if best.PlacementsPerSec == 0 || p.PlacementsPerSec > best.PlacementsPerSec {
						best = p
					}
				}
				b.ReportMetric(best.PlacementsPerSec, "placements/sec")
				b.ReportMetric(best.P99US, "p99-us")
				thrSeries = append(thrSeries, best)
			})
		}
		shutdown()
	}

	// Locality-vs-spread cold striped launch on distance-shaped links.
	const (
		lnNodes    = 16
		lnGang     = 4
		lnFanout   = 2 // launch-tree fanout
		lnStripes  = 2
		physFanout = 4 // heap topology the link shaping charges hops on
		lnBinary   = 4 << 20
		lnFrag     = 256 << 10
		hopDelay   = 2 * time.Millisecond // per frame, per relay hop
	)
	type lnPoint struct {
		Policy     string  `json:"policy"`
		ColdSendMS float64 `json:"cold_send_ms"`
		Span       int     `json:"gang_span_hops"`
		Placed     []int   `json:"placed"`
	}
	// Busy everything except one idle node per topology group: load-only
	// placement chases the idle set {3, 5, 9, 13} cross-rack, while
	// locality takes the equally-loaded but adjacent block [0..3].
	busy := []int{0, 1, 2, 4, 6, 7, 8, 10, 11, 12, 14, 15}
	lnPoints := map[string]lnPoint{}
	for _, policy := range []string{"spread", "locality"} {
		policy := policy
		b.Run(fmt.Sprintf("locality-launch/policy=%s", policy), func(b *testing.B) {
			// addr→node fills after boot; dials during launches read it to
			// charge the hop distance between the two endpoints. The MM's
			// address never enters the map, so control links stay unshaped.
			var mu sync.Mutex
			addrNode := map[string]int{}
			nmCfg := func(self int) NMConfig {
				return NMConfig{Dialer: func(addr string) (net.Conn, error) {
					c, err := net.DialTimeout("tcp", addr, dialTimeout)
					if err != nil {
						return nil, err
					}
					mu.Lock()
					peer, ok := addrNode[addr]
					mu.Unlock()
					if !ok {
						return c, nil
					}
					plan := faultconn.NewPlan()
					plan.WriteDelay = time.Duration(place.Distance(self, peer, physFanout)) * hopDelay
					return faultconn.Wrap(c, plan), nil
				}}
			}
			mm, nms, _ := chaosCluster(b, lnNodes, MMConfig{
				Fanout: lnFanout, FragBytes: lnFrag, Stripes: lnStripes, Placement: policy,
			}, nmCfg)
			mu.Lock()
			for _, nm := range nms {
				endpoint, _, _ := splitPeerAddr(nm.PeerAddr()) // what the Dialer sees
				addrNode[endpoint] = nm.Node()
			}
			mu.Unlock()
			mm.mu.Lock()
			for _, id := range busy {
				mm.place.Commit(id, place.Vec{})
			}
			mm.mu.Unlock()
			spec := func(seed uint64) JobSpec {
				return JobSpec{
					Name: "locality-bench", BinaryBytes: lnBinary, Nodes: lnGang,
					PEsPerNode: 1, Demand: place.Vec{CPU: 1}, ImageSeed: seed,
					Program: ProgramSpec{Kind: "exit"},
				}
			}
			// Warmup launch: establishes the (cached) relay conns and tells
			// us which nodes this policy picks, via image presence.
			rep, err := mm.RunJob(spec(0x10CA_0000))
			if err != nil {
				b.Fatal(err)
			}
			var placed []int
			for _, nm := range nms {
				if _, ok := nm.ImageDigest(rep.JobID); ok {
					placed = append(placed, nm.Node())
				}
			}
			if len(placed) != lnGang {
				b.Fatalf("placed %d nodes, want %d", len(placed), lnGang)
			}
			pt := lnPoint{Policy: policy, Span: place.Span(placed, physFanout), Placed: placed}
			b.SetBytes(lnBinary)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := mm.RunJob(spec(0x10CA_1000 + uint64(i)))
				if err != nil {
					b.Fatal(err)
				}
				cold := float64(rep.Send) / float64(time.Millisecond)
				if pt.ColdSendMS == 0 || cold < pt.ColdSendMS {
					pt.ColdSendMS = cold
				}
			}
			b.StopTimer()
			b.ReportMetric(pt.ColdSendMS, "cold-send-ms")
			b.ReportMetric(float64(pt.Span), "span-hops")
			if prev, seen := lnPoints[policy]; !seen || pt.ColdSendMS < prev.ColdSendMS {
				lnPoints[policy] = pt
			}
		})
	}

	fields := map[string]any{
		"gang":       thrGang,
		"throughput": thrSeries,
	}
	if sp, ok := lnPoints["spread"]; ok {
		if lc, ok := lnPoints["locality"]; ok && lc.ColdSendMS > 0 {
			speedup := sp.ColdSendMS / lc.ColdSendMS
			fields["locality_launch"] = map[string]any{
				"nodes":         lnNodes,
				"gang":          lnGang,
				"fanout":        lnFanout,
				"stripes":       lnStripes,
				"phys_fanout":   physFanout,
				"binary_bytes":  lnBinary,
				"frag_bytes":    lnFrag,
				"hop_delay":     hopDelay.String(),
				"spread":        sp,
				"locality":      lc,
				"speedup":       speedup,
				"span_spread":   sp.Span,
				"span_locality": lc.Span,
			}
			b.Logf("locality cold-launch speedup on shaped links: %.2fx (spread %.1f ms span %d -> locality %.1f ms span %d)",
				speedup, sp.ColdSendMS, sp.Span, lc.ColdSendMS, lc.Span)
			if speedup < 1.2 {
				b.Errorf("locality speedup %.2fx below the 1.2x floor", speedup)
			}
		}
	}
	if len(thrSeries) == 0 && len(lnPoints) == 0 {
		return
	}
	mergeBenchSummary(b, map[string]any{"placement": fields})
}
