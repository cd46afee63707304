package livenet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/livenet/journal"
	"repro/internal/place"
)

// fullSpec sets every JobSpec field to a non-zero value.
func fullSpec() JobSpec {
	return JobSpec{
		Name: "sweep", BinaryBytes: 12 << 20, Nodes: 3, PEsPerNode: 2,
		Program:    ProgramSpec{Kind: "spin", Duration: 1500 * time.Millisecond, Grid: 24, Iters: 7},
		ImageSeed:  1<<63 + 5,
		ImagePatch: map[int]uint64{47: 1 << 40, 0: 1, 9: 3},
		User:       "alice", Weight: 3,
		Place:  []int{4, 1, 9},
		Demand: place.Vec{CPU: 2, Mem: 4096 << 20, Net: -1},
	}
}

// controlCase is one message and what the receiver must see.
type controlCase struct {
	name       string
	sent, want Message
}

// fullMessages has one sample of each of the 27 message kinds with
// every field non-zero (checked by requireFullSamples): the 14 'G'
// kinds, the fragment, and the 12 kinds with a frame type of their own.
func fullMessages() []Message {
	return []Message{
		{Register: &Register{Node: 3, CPUs: 4, Addr: "127.0.0.1:99", Cap: place.Vec{CPU: 4, Mem: 8 << 30, Net: 100}}},
		{Submit: &Submit{Spec: fullSpec()}},
		{Plan: &Plan{Job: 7, Frags: 48, Fanout: 2, Stripes: 3, Children: [][]ChildRef{
			{{Node: 1, Addr: "a"}, {Node: 2, Addr: "b"}},
			{{Node: 5, Addr: "e"}},
			{{Node: 3, Addr: "127.0.0.1:7000#3"}},
		}}},
		{Replan: &Replan{Job: 7, Stripe: 1, Epoch: 2, Frags: 48, Fanout: 2, Resume: 5,
			Children: []ChildRef{{Node: 4, Addr: "d"}}}},
		{ChildDead: &ChildDead{Job: 7, Stripe: 2, Node: 5}},
		{Abort: &Abort{Job: 7, Reason: "node 5 failed"}},
		{Launch: &Launch{Job: 7, Spec: fullSpec(), Ranks: []int{1, 2, 3}, BinSize: 12 << 20, Row: 2, Gang: true}},
		{Term: &Term{Job: 7, Node: 5}},
		{Done: &Done{Report: Report{
			JobID: 7, Send: 3 * time.Millisecond, Execute: 5 * time.Millisecond, Total: 9 * time.Millisecond,
			SendBytes: 1 << 33, Failed: []int{5, 6}, Replans: 1, Recovery: 40 * time.Millisecond,
			StripeReplans: []int{1, 3, 2}, Chunks: 48, ChunksSent: 1, BytesSaved: 47 << 18,
			Queued: time.Microsecond, Row: 1, WindowPeak: 16, Timeline: "plan 1ms | send 2ms", Retries: 1,
		}, Err: "boom"}},
		{CtlPlan: &CtlPlan{Epoch: 4, Children: []CtlChild{
			{Node: 1, Addr: "x", Subtree: []int{1, 3, 4}},
			{Node: 2, Addr: "y", Subtree: []int{2}},
		}}},
		{StatusQ: &StatusReq{}},
		{StatusR: &StatusRep{Nodes: []int{1, 2, 4}, Jobs: 1, Queued: 2, Launched: 3, Completed: 4, Strobes: 5, Gang: true}},
		{Rejoin: &Rejoin{Node: 3, CPUs: 4, Addr: "h:1", Cap: place.Vec{CPU: 1, Mem: 2, Net: 3}}},
		{RejoinAck: &RejoinAck{Probation: 3, Err: "refused"}},
		{Frag: &Frag{Job: 7, Index: 3, Last: true, Data: []byte("payload"), CRC: 0xdeadbeef, Stripe: 2}},
		{FragAck: &FragAck{Job: 7, Index: 41, Node: 6, Epoch: 2, OK: true, Stripe: 1}},
		{Ping: &Ping{Seq: 1 << 40, Epoch: 3}},
		{Pong: &Pong{Seq: 9, Node: 4, Epoch: 3, MinSeq: 8, Absent: []uint64{1<<63 | 1, 0b100}}},
		{Strobe: &Strobe{Seq: 5, Row: 2, Epoch: 3}},
		{StrobeAck: &StrobeAck{Seq: 5, Node: 4, Epoch: 3}},
		{PlanAck: &PlanAck{Job: 7, Node: 4, Err: "dial: connection refused"}},
		{ReplanAck: &ReplanAck{Job: 7, Node: 4, Epoch: 2, Received: 11, Stripe: 1, Err: "replan refused"}},
		{PeerDown: &PeerDown{Job: 7, Node: 5, From: 4, Err: "write: broken pipe"}},
		{Manifest: &Manifest{Job: 7, Epoch: 2, ChunkBytes: 256 << 10, ImageCRC: 0xcafef00d,
			TotalBytes: 12 << 20, Stripe: 1, Hashes: []uint64{1 << 63, 5}, CRCs: []uint32{7, 9}}},
		{Have: &Have{Job: 7, Node: 5, Epoch: 2, Stripe: 1, Bits: []uint64{0b101, 1 << 40}}},
		{NeedMask: &NeedMask{Job: 7, Epoch: 2, Stripe: 1, Bits: []uint64{^uint64(0)}}},
		{Hello: &Hello{Node: 12}},
	}
}

// msgKindName names m's kind in case names.
func msgKindName(m *Message) string {
	t, kind := frameOf(m)
	if t == frameControl {
		return fmt.Sprintf("G%d", kind)
	}
	return string(t)
}

// controlCases covers all 27 kinds with every field non-zero, plus the
// nil/empty cases: empty slices and maps of the 'G' kinds arrive as nil,
// as they did under gob, while an empty stripe keeps its position in
// Plan.Children. The hot kinds decode into conn scratch that keeps its
// capacity, so an empty bitmap received after a full one arrives as an
// empty slice, not nil — the empties follow the full samples here. An
// over-long error string arrives clipped to maxCtlErr.
func controlCases() []controlCase {
	var cs []controlCase
	for _, m := range fullMessages() {
		cs = append(cs, controlCase{name: "full/" + msgKindName(&m), sent: m, want: m})
	}
	empty := func(name string, sent, want Message) {
		cs = append(cs, controlCase{name: "empty/" + name, sent: sent, want: want})
	}
	empty("spec",
		Message{Submit: &Submit{Spec: JobSpec{ImagePatch: map[int]uint64{}, Place: []int{}}}},
		Message{Submit: &Submit{}})
	empty("plan-no-stripes",
		Message{Plan: &Plan{Children: [][]ChildRef{}}},
		Message{Plan: &Plan{}})
	empty("plan-empty-stripe",
		Message{Plan: &Plan{Stripes: 3, Children: [][]ChildRef{{}, {{Node: 1, Addr: "a"}}, nil}}},
		Message{Plan: &Plan{Stripes: 3, Children: [][]ChildRef{nil, {{Node: 1, Addr: "a"}}, nil}}})
	empty("replan", Message{Replan: &Replan{Children: []ChildRef{}}}, Message{Replan: &Replan{}})
	empty("launch", Message{Launch: &Launch{Ranks: []int{}}}, Message{Launch: &Launch{}})
	empty("report",
		Message{Done: &Done{Report: Report{Failed: []int{}, StripeReplans: []int{}}}},
		Message{Done: &Done{}})
	empty("ctl-subtree",
		Message{CtlPlan: &CtlPlan{Children: []CtlChild{{Subtree: []int{}}}}},
		Message{CtlPlan: &CtlPlan{Children: []CtlChild{{}}}})
	empty("status", Message{StatusR: &StatusRep{Nodes: []int{}}}, Message{StatusR: &StatusRep{}})
	empty("term", Message{Term: &Term{}}, Message{Term: &Term{}})
	empty("negative", Message{Term: &Term{Job: -1, Node: -1 << 40}}, Message{Term: &Term{Job: -1, Node: -1 << 40}})
	empty("pong", Message{Pong: &Pong{}}, Message{Pong: &Pong{Absent: []uint64{}}})
	empty("manifest", Message{Manifest: &Manifest{}}, Message{Manifest: &Manifest{Hashes: []uint64{}, CRCs: []uint32{}}})
	empty("have", Message{Have: &Have{}}, Message{Have: &Have{Bits: []uint64{}}})
	empty("need", Message{NeedMask: &NeedMask{}}, Message{NeedMask: &NeedMask{Bits: []uint64{}}})
	empty("frag", Message{Frag: &Frag{}}, Message{Frag: &Frag{Data: []byte{}}})
	empty("negative-ack", Message{FragAck: &FragAck{Job: -3, Index: -1}}, Message{FragAck: &FragAck{Job: -3, Index: -1}})
	long := strings.Repeat("e", maxCtlErr+100)
	empty("clipped-error",
		Message{PeerDown: &PeerDown{Err: long}},
		Message{PeerDown: &PeerDown{Err: long[:maxCtlErr]}})
	return cs
}

// zeroField returns the path of the first zero-valued field under v, or
// "" when every field (recursively, through pointers, structs, and slices)
// is set.
func zeroField(v reflect.Value, path string) string {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return path
		}
		return zeroField(v.Elem(), path)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p := zeroField(v.Field(i), path+"."+v.Type().Field(i).Name); p != "" {
				return p
			}
		}
		return ""
	case reflect.Slice:
		if v.Len() == 0 {
			return path
		}
		for i := 0; i < v.Len(); i++ {
			if p := zeroField(v.Index(i), fmt.Sprintf("%s[%d]", path, i)); p != "" {
				return p
			}
		}
		return ""
	}
	if v.IsZero() {
		return path
	}
	return ""
}

// requireFullSamples keeps the round-trip samples honest: each of the
// 27 kinds appears once with every field non-zero, so a field the codec
// forgets to carry cannot pass a round trip.
func requireFullSamples(t *testing.T, cs []controlCase) {
	t.Helper()
	kinds := map[string]bool{}
	for _, c := range cs {
		if !strings.HasPrefix(c.name, "full/") {
			continue
		}
		kinds[msgKindName(&c.sent)] = true
		v := reflect.ValueOf(c.sent)
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); !f.IsNil() {
				if p := zeroField(f, v.Type().Field(i).Name); p != "" && c.sent.StatusQ == nil {
					t.Errorf("%s: field %s is zero", c.name, p)
				}
			}
		}
	}
	if want := int(kindRejoinAck) + 13; len(kinds) != want {
		t.Fatalf("samples cover %d message kinds, want %d", len(kinds), want)
	}
}

// frameBody encodes one message and splits the frame into its type and
// body.
func frameBody(m Message) (byte, []byte) {
	b, err := appendFrame(nil, &m)
	if err != nil {
		panic(err)
	}
	return b[0], b[frameHdr:]
}

// decodeAllocBound is the most the decoder may allocate for a body of n
// bytes. Counts are bounded by the bytes left, so allocation scales with
// n: the widest case is a slice header per one-byte count in
// Plan.Children (24 B of Go memory per wire byte), plus the message
// struct itself.
func decodeAllocBound(n int) uint64 { return uint64(32*n + 1024) }

// decodeMeasured decodes a body of type t and reports the bytes the
// decode allocated (the minimum over three runs, so a stray background
// allocation does not count against the decoder).
func decodeMeasured(t byte, p []byte) (Message, uint64, error) {
	var m Message
	var err error
	best := ^uint64(0)
	var ms runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		m, err = decodeFrame(t, p, nil)
		runtime.ReadMemStats(&ms)
		if d := ms.TotalAlloc - before; d < best {
			best = d
		}
	}
	return m, best, err
}

// checkWellFormed asserts a successfully decoded message re-encodes and
// decodes to itself.
func checkWellFormed(t *testing.T, what string, m Message) {
	t.Helper()
	if ft, _ := frameOf(&m); ft == 0 {
		t.Fatalf("%s: decoded a message with no field set", what)
	}
	ft, body := frameBody(m)
	m2, err := decodeFrame(ft, body, nil)
	if err != nil || !reflect.DeepEqual(m, m2) {
		t.Fatalf("%s: decoded message does not round-trip: %+v vs %+v (%v)", what, m, m2, err)
	}
}

// TestFrameRoundTripMalformed feeds the decoder every strict prefix of
// each encoded body (of the fixed header, for a fragment, whose payload
// is the rest of the body), seeded random byte flips, and hand-built
// violations (huge counts, unknown types and kinds, trailing bytes, bad
// bools, unsorted patch keys). Each must yield an error or a
// well-formed message, never a panic, and allocation stays bounded by
// the body length however the counts are corrupted.
func TestFrameRoundTripMalformed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range controlCases() {
		ft, p := frameBody(c.sent)
		strict := len(p)
		if ft == frameFrag {
			strict = fragHdrLen
		}
		for i := 0; i < strict; i++ {
			if _, alloc, err := decodeMeasured(ft, p[:i]); err == nil {
				t.Fatalf("%s: %d-byte prefix of a %d-byte body decoded", c.name, i, len(p))
			} else if alloc > decodeAllocBound(i) {
				t.Fatalf("%s: %d-byte prefix allocated %d bytes", c.name, i, alloc)
			}
		}
		if len(p) == 0 {
			continue
		}
		q := make([]byte, len(p))
		for trial := 0; trial < 300; trial++ {
			copy(q, p)
			for f := 1 + rng.Intn(3); f > 0; f-- {
				q[rng.Intn(len(q))] ^= byte(1 + rng.Intn(255))
			}
			m, alloc, err := decodeMeasured(ft, q)
			if alloc > decodeAllocBound(len(q)) {
				t.Fatalf("%s: flipped body %x allocated %d bytes", c.name, q, alloc)
			}
			if err == nil {
				checkWellFormed(t, c.name, m)
			}
		}
	}

	huge := binary.AppendUvarint(nil, 1<<40)
	// A zero JobSpec body up to its ImagePatch: name, 3 ints, program
	// (kind, duration, grid, iters), image seed.
	specHead := make([]byte, 9)
	specTail := make([]byte, 6) // user, weight, place, demand (3)
	patchFrame := func(pairs ...byte) []byte {
		b := append([]byte{kindSubmit}, specHead...)
		b = append(b, byte(len(pairs)/2))
		b = append(b, pairs...)
		return append(b, specTail...)
	}
	_, termBody := frameBody(Message{Term: &Term{Job: 1}})
	_, pingBody := frameBody(Message{Ping: &Ping{Seq: 1}})
	bigErr := binary.AppendUvarint([]byte{1, 1}, maxCtlErr+1)
	bigErr = append(bigErr, strings.Repeat("e", maxCtlErr+1)...)
	type frame struct {
		t    byte
		body []byte
	}
	bad := map[string]frame{
		"empty":              {frameControl, []byte{}},
		"kind 0":             {frameControl, []byte{0}},
		"unknown kind":       {frameControl, []byte{kindRejoinAck + 1, 0, 0}},
		"kind 0xff":          {frameControl, []byte{0xff}},
		"unknown type":       {'Z', pingBody},
		"type 0":             {0, []byte{}},
		"trailing byte":      {frameControl, append(termBody, 0)},
		"trailing ping byte": {framePing, append(pingBody, 0)},
		"bool 2":             {frameControl, []byte{kindStatusR, 0, 0, 0, 0, 0, 0, 2}},
		"ack ok 2":           {frameAck, []byte{0, 0, 0, 0, 2, 0}},
		"frag last 2":        {frameFrag, []byte{0, 0, 0, 1, 0, 0, 0, 2, 2, 0, 0, 0, 0, 0}},
		"short frag header":  {frameFrag, make([]byte, fragHdrLen-1)},
		"huge node count":    {frameControl, append([]byte{kindStatusR}, huge...)},
		"huge stripes":       {frameControl, append([]byte{kindPlan, 2, 2, 2, 2}, huge...)},
		"huge string":        {frameControl, append([]byte{kindAbort, 2}, huge...)},
		"huge patch":         {frameControl, append(append([]byte{kindSubmit}, specHead...), huge...)},
		"huge absent":        {framePong, append([]byte{2, 2, 2, 2}, huge...)},
		"huge have":          {frameHave, append([]byte{2, 2, 2, 2}, huge...)},
		"huge manifest":      {frameManifest, append([]byte{2, 2, 2, 0, 0, 0, 0, 2, 2}, huge...)},
		"short have word":    {frameHave, []byte{2, 2, 2, 2, 1, 0, 0, 0, 0, 0, 0, 0}},
		"oversized error":    {framePlanAck, bigErr},
		"overlong varint":    {frameControl, []byte{kindTerm, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0}},
		"duplicate patch":    {frameControl, patchFrame(10, 1, 10, 2)},
		"descending patch":   {frameControl, patchFrame(10, 1, 6, 2)},
	}
	for name, f := range bad {
		if _, alloc, err := decodeMeasured(f.t, f.body); err == nil {
			t.Errorf("%s: decoded without error", name)
		} else if alloc > decodeAllocBound(len(f.body)) {
			t.Errorf("%s: allocated %d bytes for a %d-byte body", name, alloc, len(f.body))
		}
	}
	if m, err := decodeFrame(frameControl, patchFrame(6, 2, 10, 1), nil); err != nil ||
		!reflect.DeepEqual(m.Submit.Spec.ImagePatch, map[int]uint64{3: 2, 5: 1}) {
		t.Fatalf("ascending patch: %+v, %v", m.Submit, err)
	}
}

// FuzzControlFrame decodes arbitrary frames — a type byte, then the body
// — both directly and through a conn's recv. Decoding must never panic;
// whatever decodes must re-encode to a frame that decodes to the same
// message, and recv must agree with the direct decode. The seed corpus
// (every sample message) runs under plain go test.
func FuzzControlFrame(f *testing.F) {
	for _, c := range controlCases() {
		t, body := frameBody(c.sent)
		f.Add(append([]byte{t}, body...))
	}
	f.Add([]byte{frameControl, kindPlan, 1, 1, 1, 1, 3, 0, 1, 2, 3, 'a', 0})
	f.Fuzz(func(t *testing.T, p []byte) {
		if len(p) == 0 {
			return
		}
		m, err := decodeFrame(p[0], p[1:], nil)
		if err == nil {
			checkWellFormed(t, "fuzz", m)
		}
		frame := binary.BigEndian.AppendUint32([]byte{p[0]}, uint32(len(p)-1))
		c := &conn{r: bufio.NewReader(bytes.NewReader(append(frame, p[1:]...)))}
		rm, rerr := c.recv()
		if (err == nil) != (rerr == nil) || (err == nil && !reflect.DeepEqual(m, rm)) {
			t.Fatalf("recv disagrees with decodeFrame: %+v, %v vs %+v, %v", rm, rerr, m, err)
		}
	})
}

// TestJournalSpecCodec: a journaled JobSpec survives encode/decode; a
// record in the gob format older MMs journaled fails decodeSpec, and a
// restarted MM skips it through the torn-spec path while still
// recovering the typed record next to it.
func TestJournalSpecCodec(t *testing.T) {
	for _, spec := range []JobSpec{fullSpec(), {}} {
		got, err := decodeSpec(encodeSpec(&spec))
		if err != nil || !reflect.DeepEqual(got, spec) {
			t.Fatalf("spec round trip: %+v, %v; want %+v", got, err, spec)
		}
	}
	var gobRec bytes.Buffer
	spec := fullSpec()
	if err := gob.NewEncoder(&gobRec).Encode(&spec); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeSpec(gobRec.Bytes()); err == nil {
		t.Fatal("gob-encoded spec record decoded")
	}
	for _, b := range [][]byte{nil, {specFormat}, encodeSpec(&spec)[:10]} {
		if _, err := decodeSpec(b); err == nil {
			t.Fatalf("truncated spec record %x decoded", b)
		}
	}

	dir := t.TempDir()
	jnl, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	jnl.Append(journal.Event{Type: journal.JobAdmitted, Job: 1, Data: gobRec.Bytes()})
	jnl.Append(journal.Event{Type: journal.JobAdmitted, Job: 2, Data: encodeSpec(&spec)})
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	mm, err := NewMM("127.0.0.1:0", MMConfig{JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	rec := mm.RecoveredJobs()
	if len(rec) != 1 || rec[0].ID != 2 || !reflect.DeepEqual(rec[0].Spec, spec) {
		t.Fatalf("recovered %+v, want only job 2 with its spec", rec)
	}
}
