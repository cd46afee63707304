package livenet

import (
	"errors"
	"net"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/livenet/faultconn"
)

// TestFaultconnOverRealFrames ties faultconn's frame scanner to the real
// encoder: one frame of each of the 27 kinds, written by conn.send
// through faultconn.Wrap with a corrupted fragment, a duplicated
// fragment, one CtlFault per per-period control type and a FailWriteGob
// armed. The receiver must see exactly the intended drops, duplicates
// and flipped first payload byte, decode every other frame intact, and
// hit EOF where the targeted 'G' frame would have started.
func TestFaultconnOverRealFrames(t *testing.T) {
	if faultconn.FragHdrLen != fragHdrLen {
		t.Fatalf("faultconn.FragHdrLen = %d, the codec's fragment header is %d bytes", faultconn.FragHdrLen, fragHdrLen)
	}
	plan := faultconn.NewPlan()
	plan.CorruptFrag = 1
	plan.DuplicateFrag = 2
	plan.FailWriteGob = int(kindRejoinAck) // the 'G' frame after one of each kind
	plan.CtlFaults = []faultconn.CtlFault{
		{Kind: framePing, Index: 0, Op: "drop"},
		{Kind: framePong, Index: 0, Op: "dup"},
		{Kind: frameStrobe, Index: 0, Op: "delay", Delay: 10 * time.Millisecond},
		{Kind: frameStrobeAck, Index: 0, Op: "drop"},
	}
	var mu sync.Mutex
	var fired []string
	plan.OnFault = func(kind string) {
		mu.Lock()
		fired = append(fired, kind)
		mu.Unlock()
	}

	// What goes out, and what the receiver must see, in order.
	var sent, want []Message
	for _, m := range fullMessages() {
		switch {
		case m.Frag != nil:
			for i := 0; i < 3; i++ {
				f := *m.Frag
				f.Index = i
				sent = append(sent, Message{Frag: &f})
				got := f
				switch i {
				case 1: // CorruptFrag: the first payload byte arrives inverted
					got.Data = slices.Clone(f.Data)
					got.Data[0] ^= 0xFF
				case 2: // DuplicateFrag: the frame arrives twice
					want = append(want, Message{Frag: &got})
				}
				want = append(want, Message{Frag: &got})
			}
			continue
		case m.Ping != nil, m.StrobeAck != nil: // dropped
		case m.Pong != nil: // duplicated
			want = append(want, m, m)
		default: // the strobe is only late
			want = append(want, m)
		}
		sent = append(sent, m)
	}

	a, b := net.Pipe()
	ca, cb := newConn(faultconn.Wrap(a, plan)), newConn(b)
	defer ca.close()
	defer cb.close()
	sendErr := make(chan error, 1)
	go func() {
		for _, m := range sent {
			if err := ca.send(m); err != nil {
				sendErr <- err
				return
			}
		}
		// The FailWriteGob target: it must never reach the wire.
		sendErr <- ca.send(Message{Term: &Term{Job: 1, Node: 2}})
	}()
	for i, w := range want {
		m, err := cb.recv()
		if err != nil {
			t.Fatalf("frame %d: %v (want %+v)", i, err, w)
		}
		if !reflect.DeepEqual(m, w) {
			t.Fatalf("frame %d: got %+v, want %+v", i, m, w)
		}
		if m.Frag != nil {
			releaseFragBuf(m.Frag.Data)
		}
	}
	if m, err := cb.recv(); err == nil {
		t.Fatalf("frame after the FailWriteGob target arrived: %+v", m)
	}
	if err := <-sendErr; !errors.Is(err, faultconn.ErrInjectedClose) {
		t.Fatalf("send of the targeted 'G' frame = %v, want ErrInjectedClose", err)
	}
	mu.Lock()
	defer mu.Unlock()
	slices.Sort(fired)
	wantFired := []string{"corrupt", "ctl-delay", "ctl-drop", "ctl-drop", "ctl-dup", "duplicate", "gob-close"}
	if !slices.Equal(fired, wantFired) {
		t.Fatalf("faults fired %v, want %v", fired, wantFired)
	}
}
