package livenet

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"testing"
	"time"
)

// TestHubRejectsBadHello: the hub reads a fresh connection's envelope
// before trusting any of it. A wrong frame type, a length over the hello
// bound (refused before a single body byte arrives) and a truncated body
// each close the connection promptly, well inside helloTimeout, and
// route nothing; a well-formed hello on the same hub still reaches its
// NM.
func TestHubRejectsBadHello(t *testing.T) {
	hub, err := NewPeerHub("")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	mm, err := NewMM("127.0.0.1:0", MMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	nm, err := NewNMConfig(mm.Addr(), 7, 1, NMConfig{Hub: hub})
	if err != nil {
		t.Fatal(err)
	}
	defer nm.Close()

	hello, err := appendFrame(nil, &Message{Hello: &Hello{Node: 7}})
	if err != nil {
		t.Fatal(err)
	}
	wrongType := append([]byte{frameControl}, hello[1:]...)
	oversized := binary.BigEndian.AppendUint32([]byte{frameHello}, maxHelloLen+1)
	truncated := binary.BigEndian.AppendUint32([]byte{frameHello}, 3)
	truncated = append(truncated, 7)
	for name, b := range map[string][]byte{"wrong type": wrongType, "oversized len": oversized, "truncated body": truncated} {
		c, err := net.Dial("tcp", hub.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "truncated body" {
			c.(*net.TCPConn).CloseWrite()
		}
		// EOF, or a reset when the hub closed with bytes unread; a
		// timeout means the hub kept the connection open.
		c.SetReadDeadline(time.Now().Add(helloTimeout / 2))
		if _, err := c.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s: hub left the connection open (read: %v)", name, err)
		}
		c.Close()
	}
	nm.mu.Lock()
	adopted := len(nm.peers)
	nm.mu.Unlock()
	if adopted != 0 {
		t.Fatalf("hub routed %d bad-hello connections", adopted)
	}

	cc, err := dial(nm.PeerAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		nm.mu.Lock()
		adopted = len(nm.peers)
		nm.mu.Unlock()
		if adopted == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("well-formed hello never routed to its NM")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReadHelloDeadline: a dialer that sends part of a hello and goes
// silent is cut off by the read deadline the hub arms, not waited on.
func TestReadHelloDeadline(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go a.Write(binary.BigEndian.AppendUint32([]byte{frameHello}, 2))
	b.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	done := make(chan error, 1)
	go func() {
		_, err := readHello(b)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("truncated hello decoded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("readHello ignored the read deadline")
	}
}

// TestHubCloseDropsSilentDialer: Close does not wait out helloTimeout
// on a connection that never sends its hello.
func TestHubCloseDropsSilentDialer(t *testing.T) {
	hub, err := NewPeerHub("")
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		hub.mu.Lock()
		n := len(hub.pending)
		hub.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("hub never accepted the connection")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	hub.Close()
	if el := time.Since(start); el >= helloTimeout/2 {
		t.Fatalf("Close took %v with a silent dialer pending", el)
	}
}
