package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/livenet"
)

// The shipped defaults the workloads run under: stormd's 1 s heartbeat,
// and the MM/NM defaults (fanout 2, stripes 1, 256 KiB fragments, 4
// advertised CPUs per node) wherever a layout does not say otherwise.
const (
	heartbeat       = time.Second
	nodeCPUs        = 4
	registerTimeout = 30 * time.Second
	// teardownTimeout bounds one cluster's whole teardown. NM.Close can
	// hang on an orphaned relay pump (ROADMAP item 1); a component still
	// closing at the deadline is counted as hung and left behind.
	teardownTimeout = 5 * time.Second
)

// layout describes one cluster shape.
type layout struct {
	partitions int // 0: one flat MM; P>0: P leaf MMs behind a federation root
	perPart    int // NMs per MM
	fanout     int // MM forwarding-tree fanout (0 = default 2)
	strobe     time.Duration
	lite       bool  // dense connection profile, hub-routed relays
	cacheBytes int64 // per-NM in-memory chunk cache
}

func (l layout) nodes() int {
	if l.partitions == 0 {
		return l.perPart
	}
	return l.partitions * l.perPart
}

// leafJobBase is the job-ID base stormd -partitions gives leaf p, so
// leaf-scoped job k of partition p is leafJobBase(p)+k.
func leafJobBase(p int) int { return (p + 1) << 20 }

// cluster is one in-process live cluster booted through livenet's
// public API, the way stormd builds it.
type cluster struct {
	lay   layout
	hub   *livenet.PeerHub
	mms   []*livenet.MM
	fed   *livenet.Federation
	nms   []*livenet.NM
	addr  string // where clients submit: the flat MM or the federation root
	stops []func()

	convictions atomic.Int64
}

// boot starts the cluster and waits until every NM has registered. tap,
// when non-nil, interposes counting wrappers on every connection the
// MMs accept and the NMs open.
func boot(lay layout, tap *tap) (*cluster, error) {
	cl := &cluster{lay: lay}
	onFail := func(node int) {
		cl.convictions.Add(1)
		fmt.Fprintf(os.Stderr, "livebench: node %d convicted by the heartbeat detector\n", node)
	}
	if lay.lite {
		hub, err := livenet.NewPeerHub("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		cl.hub = hub
	}
	leaves := lay.partitions
	if leaves == 0 {
		leaves = 1
	}
	for p := 0; p < leaves; p++ {
		cfg := livenet.MMConfig{Fanout: lay.fanout, GangQuantum: lay.strobe, Lite: lay.lite}
		if lay.partitions > 0 {
			cfg.JobBase = leafJobBase(p)
		}
		if tap != nil {
			cfg.WrapConn = tap.acceptWrap(!lay.lite)
		}
		mm, err := livenet.NewMM("127.0.0.1:0", cfg)
		if err != nil {
			cl.teardown()
			return nil, err
		}
		cl.mms = append(cl.mms, mm)
		// stormd starts the detector before any NM registers.
		cl.stops = append(cl.stops, mm.StartHeartbeat(heartbeat, onFail))
		for i := 0; i < lay.perPart; i++ {
			cfg := livenet.NMConfig{CacheBytes: lay.cacheBytes, Hub: cl.hub, Lite: lay.lite}
			if tap != nil {
				cfg.Dialer = tap.dialer(mm.Addr(), !lay.lite)
				cfg.WrapConn = tap.peerWrap(!lay.lite)
			}
			nm, err := livenet.NewNMConfig(mm.Addr(), p*lay.perPart+i, nodeCPUs, cfg)
			if err != nil {
				cl.teardown()
				return nil, err
			}
			cl.nms = append(cl.nms, nm)
		}
	}
	deadline := time.Now().Add(registerTimeout)
	for _, mm := range cl.mms {
		for len(mm.NMs()) < lay.perPart {
			if time.Now().After(deadline) {
				cl.teardown()
				return nil, fmt.Errorf("only %d of %d NMs registered with %s", len(mm.NMs()), lay.perPart, mm.Addr())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	cl.addr = cl.mms[0].Addr()
	if lay.partitions > 0 {
		fed, err := livenet.NewFederation("127.0.0.1:0", livenet.FedConfig{Lite: lay.lite}, cl.mms)
		if err != nil {
			cl.teardown()
			return nil, err
		}
		cl.fed = fed
		cl.addr = fed.Addr()
	}
	return cl, nil
}

// teardown closes root, MMs, NMs and hub, in that order, under one
// deadline, and returns how many components had not finished closing
// by then (those of a stage never reached included). NMs close
// concurrently, so no NM waits for a peer queued behind it.
func (cl *cluster) teardown() (hung int) {
	for _, stop := range cl.stops {
		stop()
	}
	var stages [][]func()
	if cl.fed != nil {
		stages = append(stages, []func(){cl.fed.Close})
	}
	var mms, nms []func()
	for _, mm := range cl.mms {
		mms = append(mms, mm.Close)
	}
	for _, nm := range cl.nms {
		nms = append(nms, nm.Close)
	}
	stages = append(stages, mms, nms)
	if cl.hub != nil {
		stages = append(stages, []func(){cl.hub.Close})
	}
	total := 0
	for _, fns := range stages {
		total += len(fns)
	}
	var closed atomic.Int64
	deadline := time.After(teardownTimeout)
	for _, fns := range stages {
		var wg sync.WaitGroup
		for _, fn := range fns {
			wg.Add(1)
			go func(fn func()) {
				defer wg.Done()
				fn()
				closed.Add(1)
			}(fn)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-deadline:
			return total - int(closed.Load())
		}
	}
	return 0
}

// nodeCounters is a cluster-wide sum of the NMs' public counters.
type nodeCounters struct {
	launches, fragsWritten, fragsRelayed int
	hits, misses, evictions, bytesSaved  int64
}

func (cl *cluster) counters() nodeCounters {
	var c nodeCounters
	for _, nm := range cl.nms {
		c.launches += nm.Launches()
		c.fragsWritten += nm.FragsWritten()
		c.fragsRelayed += nm.FragsRelayed()
		if st, ok := nm.CacheStats(); ok {
			c.hits += st.Hits
			c.misses += st.Misses
			c.evictions += st.Evictions
			c.bytesSaved += st.BytesSaved
		}
	}
	return c
}

func (c nodeCounters) sub(o nodeCounters) nodeCounters {
	return nodeCounters{
		launches: c.launches - o.launches, fragsWritten: c.fragsWritten - o.fragsWritten,
		fragsRelayed: c.fragsRelayed - o.fragsRelayed,
		hits:         c.hits - o.hits, misses: c.misses - o.misses,
		evictions: c.evictions - o.evictions, bytesSaved: c.bytesSaved - o.bytesSaved,
	}
}

// ctlCounters folds the MMs' detector and control-egress counters.
type ctlCounters struct {
	hbSum, strobeSum time.Duration // mean × samples, per MM, summed
	hbN, strobeN     int64
	hbMax, strobeMax time.Duration // lifetime maxima (set-up included)
	frames, bytes    int64
}

func (cl *cluster) ctl() ctlCounters {
	var c ctlCounters
	for _, mm := range cl.mms {
		mean, hbMax, n := mm.HeartbeatRTT()
		c.hbSum += mean * time.Duration(n)
		c.hbN += n
		c.hbMax = max(c.hbMax, hbMax)
		mean, strobeMax, n := mm.StrobeLatency()
		c.strobeSum += mean * time.Duration(n)
		c.strobeN += n
		c.strobeMax = max(c.strobeMax, strobeMax)
		f, b := mm.ControlEgress()
		c.frames += f
		c.bytes += b
	}
	return c
}

// heapNow is the live heap after a forced collection.
func heapNow() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
