package livenet

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/livenet/faultconn"
	"repro/internal/testutil"
)

// waitForGoroutines delegates to the shared testutil helper so every
// lifecycle test — from 3-node chaos to 512-NM federation — asserts
// clean teardown the same way.
func waitForGoroutines(t testing.TB, base int, within time.Duration) {
	t.Helper()
	testutil.WaitForGoroutines(t, base, within)
}

// TestNoGoroutineLeaks runs the three lifecycle shapes that historically
// leak — a healthy launch, a recovered (chaos-killed) launch, and an
// aborted (corrupt) launch, all with a heartbeat detector running — and
// asserts the process returns to its goroutine baseline after teardown.
func TestNoGoroutineLeaks(t *testing.T) {
	base := runtime.NumGoroutine()

	// Healthy lifecycle, including a detector the test "forgets" to
	// stop: MM.Close must stop it.
	func() {
		mm, _, shutdown := chaosCluster(t, 3, chaosMMConfig(), nil)
		defer shutdown()
		mm.StartHeartbeat(50*time.Millisecond, nil) // no explicit stop
		if _, err := SubmitJob(mm.Addr(), JobSpec{
			Name: "ok", BinaryBytes: 256 << 10, Nodes: 3, PEsPerNode: 1,
			Program: ProgramSpec{Kind: "exit"},
		}); err != nil {
			t.Fatal(err)
		}
	}()
	waitForGoroutines(t, base, 5*time.Second)

	// Recovered launch: a leaf dæmon dies mid-transfer, the tree
	// self-heals, and the dead NM's goroutines must all be reaped.
	func() {
		const n, victim = 5, 4
		var victimNM atomic.Pointer[NM]
		mm, nms, shutdown := chaosCluster(t, n, chaosMMConfig(), func(node int) NMConfig {
			if node != victim {
				return NMConfig{}
			}
			return NMConfig{WrapConn: func(c net.Conn) net.Conn {
				plan := faultconn.NewPlan()
				plan.CloseAtReadFrag = 6
				plan.OnFault = func(string) {
					go func() {
						if nm := victimNM.Load(); nm != nil {
							nm.Close()
						}
					}()
				}
				return faultconn.Wrap(c, plan)
			}}
		})
		defer shutdown()
		victimNM.Store(nms[victim])
		if _, err := SubmitJob(mm.Addr(), JobSpec{
			Name: "heal", BinaryBytes: chaosBinary, Nodes: n, PEsPerNode: 1,
			Program: ProgramSpec{Kind: "exit"},
		}); err != nil {
			t.Fatalf("recovery launch failed: %v", err)
		}
	}()
	waitForGoroutines(t, base, 5*time.Second)

	// Aborted launch: wire corruption fails the job; abort must reap
	// every transfer goroutine and relay pump.
	func() {
		mm, _, shutdown := chaosCluster(t, 3, chaosMMConfig(), func(node int) NMConfig {
			if node != 0 {
				return NMConfig{}
			}
			return NMConfig{Dialer: func(addr string) (net.Conn, error) {
				c, err := net.DialTimeout("tcp", addr, 5*time.Second)
				if err != nil {
					return nil, err
				}
				plan := faultconn.NewPlan()
				plan.CorruptFrag = 1
				return faultconn.Wrap(c, plan), nil
			}}
		})
		defer shutdown()
		if _, err := SubmitJob(mm.Addr(), JobSpec{
			Name: "doomed", BinaryBytes: chaosBinary, Nodes: 3, PEsPerNode: 1,
			Program: ProgramSpec{Kind: "exit"},
		}); err == nil {
			t.Fatal("corrupt job should fail")
		}
	}()
	waitForGoroutines(t, base, 5*time.Second)
}

// TestNMCloseRacesRelayDials closes one end of a relay link while
// several goroutines dial it concurrently, with the other end left
// running. Concurrent dials to one address replace each other in the
// link cache, yet the dialing NM's Close must close every link whose
// ack pump it waits for; and the accepting NM's Close must close every
// inbound link, including one accepted while it was closing. Close must
// return, and the process must return to its goroutine baseline.
func TestNMCloseRacesRelayDials(t *testing.T) {
	base := runtime.NumGoroutine()
	for round := 0; round < 10; round++ {
		_, nms, shutdown := chaosCluster(t, 2, chaosMMConfig(), nil)
		src, dst := nms[0], nms[1]
		victim := src // even rounds: the dialing end closes
		if round%2 == 1 {
			victim = dst // odd rounds: the accepting end closes
		}
		addr := dst.PeerAddr()
		start := make(chan struct{})
		var dials sync.WaitGroup
		for g := 0; g < 8; g++ {
			dials.Add(1)
			go func() {
				defer dials.Done()
				<-start
				for k := 0; k < 4; k++ {
					src.dialChild(addr) // errors once either end is closed
				}
			}()
		}
		close(start)
		closed := make(chan struct{})
		go func() {
			victim.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: NM %d Close hung with relay dials in flight", round, victim.node)
		}
		dials.Wait()
		shutdown()
	}
	waitForGoroutines(t, base, 5*time.Second)
}

// TestNMPeerConnSingleFlight races many first dials to one relay
// address. Exactly one dial may reach the network, and every caller
// must get the same link; the NM's Close afterwards must reap the
// link's ack pump along with everything else.
func TestNMPeerConnSingleFlight(t *testing.T) {
	base := runtime.NumGoroutine()
	var dstAddr atomic.Value
	dstAddr.Store("")
	var dials atomic.Int32
	_, nms, shutdown := chaosCluster(t, 2, chaosMMConfig(), func(node int) NMConfig {
		if node != 0 {
			return NMConfig{}
		}
		return NMConfig{Dialer: func(addr string) (net.Conn, error) {
			if addr == dstAddr.Load().(string) {
				dials.Add(1)
				// Hold the dial open so every racer arrives while it is
				// still in flight.
				time.Sleep(50 * time.Millisecond)
			}
			return net.DialTimeout("tcp", addr, 5*time.Second)
		}}
	})
	src, dst := nms[0], nms[1]
	addr := dst.PeerAddr()
	endpoint, _, _ := splitPeerAddr(addr) // what the Dialer sees
	dstAddr.Store(endpoint)

	const racers = 16
	conns := make([]*conn, racers)
	errs := make([]error, racers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			conns[i], errs[i] = src.peerConn(addr)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range conns {
		if errs[i] != nil {
			t.Fatalf("racer %d: %v", i, errs[i])
		}
		if conns[i] == nil || conns[i] != conns[0] {
			t.Fatalf("racer %d got link %p, racer 0 got %p", i, conns[i], conns[0])
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("%d racing first dials to one address reached the network %d times, want 1", racers, n)
	}
	src.mu.Lock()
	pumps := len(src.pumps)
	src.mu.Unlock()
	if pumps != 1 {
		t.Fatalf("%d ack pumps running for one relay address, want 1", pumps)
	}
	shutdown()
	waitForGoroutines(t, base, 5*time.Second)
}

// TestNMLaunchAfterCloseRefused hands an NM a gang Launch after Close
// has swept its gates. The launch must be refused: a gate registered
// then is never cancelled, so its gated processes would wait forever on
// a strobe and leak.
func TestNMLaunchAfterCloseRefused(t *testing.T) {
	base := runtime.NumGoroutine()
	_, nms, shutdown := chaosCluster(t, 1, chaosMMConfig(), nil)
	nm := nms[0]
	nm.Close()
	const job = 77
	nm.mu.Lock()
	nm.bins[job] = &binState{complete: true}
	nm.mu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		nm.onLaunch(&Launch{Job: job, Ranks: []int{0, 1}, Gang: true,
			Spec: JobSpec{Program: ProgramSpec{Kind: "sleep", Duration: time.Second}}})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("onLaunch after Close hung")
	}
	nm.mu.Lock()
	gates, launches := len(nm.gates), nm.launches
	nm.mu.Unlock()
	if gates != 0 || launches != 0 {
		t.Fatalf("closed NM accepted a launch: %d gates, %d processes", gates, launches)
	}
	shutdown()
	waitForGoroutines(t, base, 5*time.Second)
}
