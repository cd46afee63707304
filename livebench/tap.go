package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// Link classes for byte counts. Every byte is counted once, at the NM
// end: an NM's reads on its MM link are the MM→NM bytes, its writes
// there the NM→MM bytes, and every write on a relay link (fragments
// down, acks and ledgers up) an NM→NM byte.
const (
	mmToNM = iota
	nmToMM
	nmToNM
	numLinks
)

// bulkSockBytes replays the socket buffer size livenet's bulk connection
// profile applies to a bare *net.TCPConn: a wrapped conn hides the TCP
// type from the program, so the tap sets the buffers itself to keep the
// traced data plane the same as the untraced one.
const bulkSockBytes = 1 << 20

// tap counts traffic through the WrapConn and Dialer hooks of the MMs
// and NMs of a traced cluster.
type tap struct {
	bytes  [numLinks]atomic.Int64
	writes atomic.Int64 // Write calls, MM-accepted and NM-side conns
	waitNs atomic.Int64 // time spent inside those Write calls
	dials  atomic.Int64 // connections opened: NM dials plus MM accepts
	// firstAccept holds the time (Unix ns) of the first MM accept since
	// it was last zeroed: on a federation, when the root's delegated
	// submit reached a leaf.
	firstAccept atomic.Int64
}

type countConn struct {
	net.Conn
	t             *tap
	read, written *atomic.Int64 // this link's byte counters; nil counts none
}

func (c *countConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if c.read != nil {
		c.read.Add(int64(n))
	}
	return n, err
}

func (c *countConn) Write(b []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(b)
	c.t.waitNs.Add(int64(time.Since(t0)))
	c.t.writes.Add(1)
	if c.written != nil {
		c.written.Add(int64(n))
	}
	return n, err
}

func (t *tap) wrap(nc net.Conn, bulk bool, read, written *atomic.Int64) net.Conn {
	if tc, ok := nc.(*net.TCPConn); ok && bulk {
		tc.SetWriteBuffer(bulkSockBytes)
		tc.SetReadBuffer(bulkSockBytes)
	}
	return &countConn{Conn: nc, t: t, read: read, written: written}
}

// acceptWrap is an MM's WrapConn: it counts the accept and the MM's
// writes (bytes are counted at the NM end).
func (t *tap) acceptWrap(bulk bool) func(net.Conn) net.Conn {
	return func(nc net.Conn) net.Conn {
		t.dials.Add(1)
		t.firstAccept.CompareAndSwap(0, time.Now().UnixNano())
		return t.wrap(nc, bulk, nil, nil)
	}
}

// dialer is an NM's Dialer: plain TCP (livenet keeps its own retries
// around it), counted, and classed by whether it reaches the NM's MM.
func (t *tap) dialer(mmAddr string, bulk bool) func(string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		t.dials.Add(1)
		if addr == mmAddr {
			return t.wrap(nc, bulk, &t.bytes[mmToNM], &t.bytes[nmToMM]), nil
		}
		return t.wrap(nc, bulk, nil, &t.bytes[nmToNM]), nil
	}
}

// peerWrap is an NM's WrapConn. Conns from dialer arrive already
// counted; anything else is an inbound relay link.
func (t *tap) peerWrap(bulk bool) func(net.Conn) net.Conn {
	return func(nc net.Conn) net.Conn {
		if _, ok := nc.(*countConn); ok {
			return nc
		}
		return t.wrap(nc, bulk, nil, &t.bytes[nmToNM])
	}
}

type tapCounters struct {
	bytes                 [numLinks]int64
	writes, waitNs, dials int64
}

func (t *tap) counters() tapCounters {
	c := tapCounters{writes: t.writes.Load(), waitNs: t.waitNs.Load(), dials: t.dials.Load()}
	for i := range c.bytes {
		c.bytes[i] = t.bytes[i].Load()
	}
	return c
}

// span is one traced interval. The spans of one launch share Trace;
// Parent 0 marks the launch's root span.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the measured window opened
	Dur    int64  `json:"dur_ns"`
	Job    int    `json:"job,omitempty"`
	Client int    `json:"client"`
}

// launchSpans lays one launch out as a root span (the client's wall
// time) with queue, send and execute children in the order the MM runs
// them, taken from the Report, and the status probe that followed it.
// The part of the root no child covers is the client/RPC self time.
func launchSpans(trace int, s *sample, origin time.Time) []span {
	at := int64(s.start.Sub(origin))
	id := trace * 8
	root := span{Trace: trace, ID: id + 1, Name: "launch", Start: at, Dur: int64(s.wall), Job: s.rep.JobID, Client: s.client}
	out := []span{root}
	off := at
	for i, ph := range []struct {
		name string
		d    time.Duration
	}{{"queue", s.queued}, {"send", s.rep.Send}, {"execute", s.rep.Execute}} {
		out = append(out, span{Trace: trace, ID: id + 2 + i, Parent: root.ID, Name: ph.name, Start: off, Dur: int64(ph.d), Job: s.rep.JobID, Client: s.client})
		off += int64(ph.d)
	}
	if s.status > 0 {
		out = append(out, span{Trace: trace, ID: id + 5, Name: "status", Start: at + int64(s.wall), Dur: int64(s.status), Client: s.client})
	}
	return out
}

// writeSpans writes every span of the traced window as JSON lines.
func writeSpans(path string, samples []sample, origin time.Time) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range samples {
		for _, sp := range launchSpans(i+1, &samples[i], origin) {
			if err := enc.Encode(sp); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
