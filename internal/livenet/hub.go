package livenet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// PeerHub is the relay listener, the one accept path for inbound relay
// links. Every NM advertises a routed "host:port#node" address; the
// dialing parent opens the connection with a hello frame naming the
// target node, and the hub's accept loop routes the connection to that
// NM, which applies its own WrapConn fault hook and connection profile
// (NM.adoptPeer). NMs created with NMConfig.Hub share one process-wide
// hub — one listener and one accept goroutine for hundreds of NMs,
// where a listener each was a third of the per-NM footprint at 512 —
// and an NM without one runs a private hub of one on its PeerAddr.
// What remains per inbound link is the servePeer read loop, which is
// inherent (one goroutine per live tree edge).
type PeerHub struct {
	ln net.Listener

	mu      sync.Mutex
	nms     map[int]*NM
	pending map[net.Conn]struct{} // accepted, hello not yet read
	closed  bool

	wg sync.WaitGroup
}

const (
	// helloTimeout bounds how long the hub waits for a fresh
	// connection's routing hello; a dialer that connects and goes silent
	// must not pin a hub goroutine forever.
	helloTimeout = 5 * time.Second
	// maxHelloLen bounds the hello body the hub will read. The envelope
	// comes from an unauthenticated socket, so its length is checked
	// before any body byte is read; a node ID varint needs at most 10.
	maxHelloLen = 16
)

// NewPeerHub starts a shared peer listener on addr ("" or ":0" forms
// pick an ephemeral port on localhost).
func NewPeerHub(addr string) (*PeerHub, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("livenet: hub listen %s: %w", addr, err)
	}
	h := &PeerHub{ln: ln, nms: make(map[int]*NM), pending: make(map[net.Conn]struct{})}
	h.wg.Add(1)
	go h.accept()
	return h, nil
}

// Addr returns the hub's listening endpoint (without a node suffix).
func (h *PeerHub) Addr() string { return h.ln.Addr().String() }

// NodeAddr returns the routed peer address an NM registers with the MM:
// dialing it reaches that NM through the hub.
func (h *PeerHub) NodeAddr(node int) string {
	return fmt.Sprintf("%s#%d", h.Addr(), node)
}

// register claims a node ID on the hub.
func (h *PeerHub) register(node int, nm *NM) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return fmt.Errorf("livenet: hub closed")
	}
	if _, dup := h.nms[node]; dup {
		return fmt.Errorf("livenet: hub already serves node %d", node)
	}
	h.nms[node] = nm
	return nil
}

// unregister releases a node ID; inbound connections for it are refused
// from now on. Connections already routed belong to the NM and die with
// it.
func (h *PeerHub) unregister(node int, nm *NM) {
	h.mu.Lock()
	if h.nms[node] == nm {
		delete(h.nms, node)
	}
	h.mu.Unlock()
}

// Close stops the hub. NMs still registered keep running but become
// unreachable for new relay connections; close them first. Connections
// still owing their hello are closed rather than waited on, so an NM's
// Close does not stall on a silent dialer.
func (h *PeerHub) Close() {
	h.mu.Lock()
	h.closed = true
	for nc := range h.pending {
		nc.Close()
	}
	h.mu.Unlock()
	h.ln.Close()
	h.wg.Wait()
}

func (h *PeerHub) accept() {
	defer h.wg.Done()
	for {
		nc, err := h.ln.Accept()
		if err != nil {
			return // listener closed
		}
		h.mu.Lock()
		if h.closed {
			h.mu.Unlock()
			nc.Close()
			return
		}
		h.pending[nc] = struct{}{}
		h.wg.Add(1)
		h.mu.Unlock()
		go h.route(nc)
	}
}

// route reads the routing hello off a fresh connection and hands the
// connection to the target NM. The hello is read raw — before any
// buffering — so the NM-side conn built afterwards starts exactly at
// the first real frame and over-reads nothing.
func (h *PeerHub) route(nc net.Conn) {
	defer h.wg.Done()
	nc.SetReadDeadline(time.Now().Add(helloTimeout))
	node, err := readHello(nc)
	h.mu.Lock()
	delete(h.pending, nc)
	nm := h.nms[node]
	h.mu.Unlock()
	if err != nil {
		nc.Close()
		return
	}
	nc.SetReadDeadline(time.Time{})
	if nm == nil || !nm.adoptPeer(nc) {
		nc.Close()
	}
}

var errBadHello = errors.New("livenet: connection did not open with a hello frame")

// readHello reads exactly one hello frame off r: the envelope, which
// must name a hello of at most maxHelloLen bytes, then the body through
// the shared codec.
func readHello(r io.Reader) (int, error) {
	var buf [frameHdr + maxHelloLen]byte
	if _, err := io.ReadFull(r, buf[:frameHdr]); err != nil {
		return 0, err
	}
	t, n, err := parseEnvelope(buf[:frameHdr])
	if err != nil || t != frameHello || n > maxHelloLen {
		return 0, errBadHello
	}
	body := buf[frameHdr : frameHdr+n]
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, err
	}
	m, err := decodeFrame(t, body, nil)
	if err != nil {
		return 0, err
	}
	return m.Hello.Node, nil
}
