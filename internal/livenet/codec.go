package livenet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/place"
)

// Control-frame kinds: the first body byte of a 'G' frame. The body
// that follows is the kind's field walk below.
const (
	kindRegister byte = iota + 1
	kindSubmit
	kindPlan
	kindReplan
	kindChildDead
	kindAbort
	kindLaunch
	kindTerm
	kindDone
	kindCtlPlan
	kindStatusQ
	kindStatusR
	kindRejoin
	kindRejoinAck
)

// controlKind names the kind of m's control field, or 0 when m carries
// none of the 'G'-framed kinds.
func controlKind(m *Message) byte {
	switch {
	case m.Register != nil:
		return kindRegister
	case m.Submit != nil:
		return kindSubmit
	case m.Plan != nil:
		return kindPlan
	case m.Replan != nil:
		return kindReplan
	case m.ChildDead != nil:
		return kindChildDead
	case m.Abort != nil:
		return kindAbort
	case m.Launch != nil:
		return kindLaunch
	case m.Term != nil:
		return kindTerm
	case m.Done != nil:
		return kindDone
	case m.CtlPlan != nil:
		return kindCtlPlan
	case m.StatusQ != nil:
		return kindStatusQ
	case m.StatusR != nil:
		return kindStatusR
	case m.Rejoin != nil:
		return kindRejoin
	case m.RejoinAck != nil:
		return kindRejoinAck
	}
	return 0
}

// frameOf names the frame type that carries m and, for a 'G' frame, the
// kind byte; t is 0 when m carries nothing.
func frameOf(m *Message) (t, kind byte) {
	switch {
	case m.Frag != nil:
		return frameFrag, 0
	case m.FragAck != nil:
		return frameAck, 0
	case m.Ping != nil:
		return framePing, 0
	case m.Pong != nil:
		return framePong, 0
	case m.Strobe != nil:
		return frameStrobe, 0
	case m.StrobeAck != nil:
		return frameStrobeAck, 0
	case m.PlanAck != nil:
		return framePlanAck, 0
	case m.ReplanAck != nil:
		return frameReplanAck, 0
	case m.PeerDown != nil:
		return framePeerDown, 0
	case m.Manifest != nil:
		return frameManifest, 0
	case m.Have != nil:
		return frameHave, 0
	case m.NeedMask != nil:
		return frameNeed, 0
	case m.Hello != nil:
		return frameHello, 0
	}
	if k := controlKind(m); k != 0 {
		return frameControl, k
	}
	return 0, 0
}

// appendFrame appends m as one frame — type u8 | len u32 | body — to b.
// A fragment's payload follows its fixed header; the send path writes
// it from the caller's buffer instead (sendFrag).
func appendFrame(b []byte, m *Message) ([]byte, error) {
	t, kind := frameOf(m)
	if t == 0 {
		return b, errEmptyMessage
	}
	start := len(b)
	w := wire{b: append(b, t, 0, 0, 0, 0)}
	if t == frameControl {
		w.b = append(w.b, kind)
	}
	w.body(t, kind, m)
	if t == frameFrag {
		w.b = append(w.b, m.Frag.Data...)
	}
	n := len(w.b) - start - frameHdr
	if n > maxFrame {
		return b, fmt.Errorf("livenet: oversized frame (%d bytes)", n)
	}
	binary.BigEndian.PutUint32(w.b[start+1:], uint32(n))
	return w.b, nil
}

// decodeFrame decodes the body of one frame of type t. It is strict: an
// unknown type or kind, a short body, trailing bytes, a bool byte other
// than 0/1, or unsorted patch keys is an error, never a panic. No
// element count is trusted beyond the bytes left to back it, so the
// decoder allocates at most a small constant multiple of len(p) however
// the body is corrupted. Empty slices and maps of the 'G' kinds decode
// as nil. With a non-nil s, the hot kinds decode into its reusable
// structs instead of fresh ones. A fragment's Data aliases p.
func decodeFrame(t byte, p []byte, s *recvScratch) (Message, error) {
	var m Message
	s.point(t, &m)
	w := wire{b: p, dec: true}
	var kind byte
	if t == frameControl {
		if len(p) == 0 {
			return Message{}, errors.New("livenet: empty control frame")
		}
		kind, w.b = p[0], p[1:]
	}
	if !w.body(t, kind, &m) {
		if t == frameControl {
			return Message{}, fmt.Errorf("livenet: unknown control kind %d", kind)
		}
		return Message{}, fmt.Errorf("livenet: unknown frame type %#x", t)
	}
	if t == frameFrag && w.err == nil {
		m.Frag.Data, w.b = w.b, nil
	}
	if err := w.finish(); err != nil {
		return Message{}, err
	}
	return m, nil
}

// recvScratch holds a conn's reusable decode targets: recv returns
// pointers into it for the hot kinds, valid until the next recv. A conn
// has one reader (the read loop that owns it), so there is no aliasing.
type recvScratch struct {
	hello     Hello
	ping      Ping
	pong      Pong // Absent grown once, reused across frames
	strobe    Strobe
	strobeAck StrobeAck
	ack       FragAck
	manifest  Manifest // Hashes/CRCs grown once
	have      Have     // Bits grown once
	need      NeedMask // Bits grown once
}

// point aims m's field for frame type t at the scratch struct of that
// kind, so the walk decodes into it rather than a fresh one. A nil s,
// or a kind without scratch, leaves m untouched.
func (s *recvScratch) point(t byte, m *Message) {
	if s == nil {
		return
	}
	switch t {
	case frameHello:
		m.Hello = &s.hello
	case framePing:
		m.Ping = &s.ping
	case framePong:
		m.Pong = &s.pong
	case frameStrobe:
		m.Strobe = &s.strobe
	case frameStrobeAck:
		m.StrobeAck = &s.strobeAck
	case frameAck:
		m.FragAck = &s.ack
	case frameManifest:
		m.Manifest = &s.manifest
	case frameHave:
		m.Have = &s.have
	case frameNeed:
		m.NeedMask = &s.need
	}
}

// wire is the body codec. Each message type has one walk method that
// lists its fields in wire order; the same walk encodes (appending to b)
// or decodes (consuming b), so the two directions cannot drift apart.
// Integers and durations are varints, strings and slices carry a uvarint
// count, a bool is one byte, and uniformly random fields (hashes, CRCs,
// bitmap words) are fixed-width big-endian. Nothing is self-describing,
// so a link carries no codec state. Encoding never writes through the
// walked pointers — the MM encodes one shared JobSpec into many links
// concurrently. Decode errors are sticky: after the first, every step is
// a no-op.
type wire struct {
	b   []byte
	dec bool
	err error
}

func (w *wire) fail(what string) {
	if w.err == nil {
		w.err = fmt.Errorf("livenet: malformed frame: %s", what)
	}
	w.b = nil
}

// finish reports the decode error, or trailing bytes the walk left.
func (w *wire) finish() error {
	if w.err == nil && len(w.b) > 0 {
		w.err = fmt.Errorf("livenet: malformed frame: %d trailing bytes", len(w.b))
	}
	return w.err
}

func (w *wire) varint() int64 {
	if w.err != nil {
		return 0
	}
	v, n := binary.Varint(w.b)
	if n <= 0 {
		w.fail("bad varint")
		return 0
	}
	w.b = w.b[n:]
	return v
}

func (w *wire) uvarint() uint64 {
	if w.err != nil {
		return 0
	}
	v, n := binary.Uvarint(w.b)
	if n <= 0 {
		w.fail("bad uvarint")
		return 0
	}
	w.b = w.b[n:]
	return v
}

func (w *wire) num(p *int) {
	if !w.dec {
		w.b = binary.AppendVarint(w.b, int64(*p))
		return
	}
	*p = int(w.varint())
}

func (w *wire) num64(p *int64) {
	if !w.dec {
		w.b = binary.AppendVarint(w.b, *p)
		return
	}
	*p = w.varint()
}

func (w *wire) unum(p *uint64) {
	if !w.dec {
		w.b = binary.AppendUvarint(w.b, *p)
		return
	}
	*p = w.uvarint()
}

func (w *wire) dur(p *time.Duration) {
	if !w.dec {
		w.b = binary.AppendVarint(w.b, int64(*p))
		return
	}
	*p = time.Duration(w.varint())
}

func (w *wire) flag(p *bool) {
	if !w.dec {
		if *p {
			w.b = append(w.b, 1)
		} else {
			w.b = append(w.b, 0)
		}
		return
	}
	if w.err != nil {
		return
	}
	if len(w.b) == 0 || w.b[0] > 1 {
		w.fail("bad bool")
		return
	}
	*p = w.b[0] == 1
	w.b = w.b[1:]
}

// take consumes n raw bytes on decode; nil (and a sticky error) when
// the body is short.
func (w *wire) take(n int) []byte {
	if w.err != nil {
		return nil
	}
	if len(w.b) < n {
		w.fail("short body")
		return nil
	}
	p := w.b[:n]
	w.b = w.b[n:]
	return p
}

// u8 carries a small int in one byte (the fragment header's stripe).
func (w *wire) u8(p *int) {
	if !w.dec {
		w.b = append(w.b, byte(*p))
		return
	}
	if b := w.take(1); b != nil {
		*p = int(b[0])
	}
}

func (w *wire) u32(p *uint32) {
	if !w.dec {
		w.b = binary.BigEndian.AppendUint32(w.b, *p)
		return
	}
	if b := w.take(4); b != nil {
		*p = binary.BigEndian.Uint32(b)
	}
}

// u32n carries an int as a fixed u32 (the fragment header's fields).
func (w *wire) u32n(p *int) {
	v := uint32(*p)
	w.u32(&v)
	if w.dec {
		*p = int(v)
	}
}

// resize returns s with length n, reusing its capacity when it
// suffices: the conn scratch decodes every frame's slices in place.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// words walks a bitmap as a count of fixed 8-byte words. Decoding reuses
// the slice's capacity; an empty bitmap decodes as a zero-length slice
// of the old backing array (nil on a fresh struct).
func (w *wire) words(p *[]uint64) {
	n := w.count(len(*p), 8)
	if !w.dec {
		for _, x := range *p {
			w.b = binary.BigEndian.AppendUint64(w.b, x)
		}
		return
	}
	raw := w.take(n * 8) // count bounded n by the bytes left
	*p = resize(*p, len(raw)/8)
	for i := range *p {
		(*p)[i] = binary.BigEndian.Uint64(raw[i*8:])
	}
}

// errStr carries a diagnostic error string, clipped to maxCtlErr on
// encode; a longer one is malformed on decode.
func (w *wire) errStr(p *string) {
	if !w.dec {
		e := ctlErr(*p)
		w.str(&e)
		return
	}
	w.str(p)
	if len(*p) > maxCtlErr {
		w.fail("oversized error string")
	}
}

// count carries an element count. Decoding bounds it by the bytes left:
// every element occupies at least minWire of them, so a corrupt count
// fails here instead of sizing an allocation.
func (w *wire) count(n, minWire int) int {
	if !w.dec {
		w.b = binary.AppendUvarint(w.b, uint64(n))
		return n
	}
	v := w.uvarint()
	if v > uint64(len(w.b)/minWire) {
		w.fail("count exceeds frame")
		return 0
	}
	return int(v)
}

func (w *wire) str(p *string) {
	n := w.count(len(*p), 1)
	if !w.dec {
		w.b = append(w.b, *p...)
		return
	}
	if w.err != nil {
		return
	}
	*p = string(w.b[:n])
	w.b = w.b[n:]
}

// elems returns the slice a walk of *p fills element by element, for
// elements that each occupy at least minWire bytes: *p itself on
// encode; on decode a fresh slice of the counted length, nil when
// empty.
func elems[T any](w *wire, p *[]T, minWire int) []T {
	n := w.count(len(*p), minWire)
	if w.dec {
		*p = nil
		if n > 0 && w.err == nil {
			*p = make([]T, n)
		}
	}
	return *p
}

// into returns the struct the walk of *p fills: *p itself, after
// pointing it at a fresh struct when decoding into a Message that has
// none (decodeFrame may have aimed it at conn scratch). The walks are
// static calls on its result, so the wire never escapes and the hot
// kinds decode without allocating.
func into[T any](w *wire, p **T) *T {
	if w.dec && *p == nil {
		*p = new(T)
	}
	return *p
}

// body walks the field of m that frame type t (and, for 'G', kind)
// carries; false for an unknown type or kind.
func (w *wire) body(t, kind byte, m *Message) bool {
	switch t {
	case frameControl:
		return w.control(kind, m)
	case frameFrag:
		w.fragHdr(into(w, &m.Frag))
	case frameAck:
		w.fragAck(into(w, &m.FragAck))
	case framePing:
		p := into(w, &m.Ping)
		w.num64(&p.Seq)
		w.num(&p.Epoch)
	case framePong:
		w.pong(into(w, &m.Pong))
	case frameStrobe:
		s := into(w, &m.Strobe)
		w.num64(&s.Seq)
		w.num(&s.Row)
		w.num(&s.Epoch)
	case frameStrobeAck:
		a := into(w, &m.StrobeAck)
		w.num64(&a.Seq)
		w.num(&a.Node)
		w.num(&a.Epoch)
	case framePlanAck:
		a := into(w, &m.PlanAck)
		w.num(&a.Job)
		w.num(&a.Node)
		w.errStr(&a.Err)
	case frameReplanAck:
		w.replanAck(into(w, &m.ReplanAck))
	case framePeerDown:
		d := into(w, &m.PeerDown)
		w.num(&d.Job)
		w.num(&d.Node)
		w.num(&d.From)
		w.errStr(&d.Err)
	case frameManifest:
		w.manifest(into(w, &m.Manifest))
	case frameHave:
		h := into(w, &m.Have)
		w.num(&h.Job)
		w.num(&h.Node)
		w.num(&h.Epoch)
		w.num(&h.Stripe)
		w.words(&h.Bits)
	case frameNeed:
		n := into(w, &m.NeedMask)
		w.num(&n.Job)
		w.num(&n.Epoch)
		w.num(&n.Stripe)
		w.words(&n.Bits)
	case frameHello:
		h := into(w, &m.Hello)
		w.num(&h.Node)
	default:
		return false
	}
	return true
}

// control walks the 'G' field of the given kind; false for an unknown
// kind.
func (w *wire) control(kind byte, m *Message) bool {
	switch kind {
	case kindRegister:
		w.register(into(w, &m.Register))
	case kindSubmit:
		s := into(w, &m.Submit)
		w.jobSpec(&s.Spec)
	case kindPlan:
		w.plan(into(w, &m.Plan))
	case kindReplan:
		w.replan(into(w, &m.Replan))
	case kindChildDead:
		d := into(w, &m.ChildDead)
		w.num(&d.Job)
		w.num(&d.Stripe)
		w.num(&d.Node)
	case kindAbort:
		a := into(w, &m.Abort)
		w.num(&a.Job)
		w.str(&a.Reason)
	case kindLaunch:
		w.launch(into(w, &m.Launch))
	case kindTerm:
		t := into(w, &m.Term)
		w.num(&t.Job)
		w.num(&t.Node)
	case kindDone:
		d := into(w, &m.Done)
		w.report(&d.Report)
		w.str(&d.Err)
	case kindCtlPlan:
		w.ctlPlan(into(w, &m.CtlPlan))
	case kindStatusQ:
		into(w, &m.StatusQ)
	case kindStatusR:
		w.statusRep(into(w, &m.StatusR))
	case kindRejoin:
		// Rejoin carries exactly Register's fields.
		r := into(w, &m.Rejoin)
		w.register((*Register)(r))
	case kindRejoinAck:
		a := into(w, &m.RejoinAck)
		w.num(&a.Probation)
		w.str(&a.Err)
	default:
		return false
	}
	return true
}

// fragHdr walks the fixed fragHdrLen-byte header that opens an 'F' body:
// job u32 | index u32 | last u8 | crc u32 | stripe u8. The payload
// follows it, so its length is the frame length minus the header.
func (w *wire) fragHdr(f *Frag) {
	w.u32n(&f.Job)
	w.u32n(&f.Index)
	w.flag(&f.Last)
	w.u32(&f.CRC)
	w.u8(&f.Stripe)
}

func (w *wire) fragAck(a *FragAck) {
	w.num(&a.Job)
	w.num(&a.Index)
	w.num(&a.Node)
	w.num(&a.Epoch)
	w.flag(&a.OK)
	w.num(&a.Stripe)
}

func (w *wire) pong(p *Pong) {
	w.num64(&p.Seq)
	w.num(&p.Node)
	w.num(&p.Epoch)
	w.num64(&p.MinSeq)
	w.words(&p.Absent)
}

func (w *wire) replanAck(a *ReplanAck) {
	w.num(&a.Job)
	w.num(&a.Node)
	w.num(&a.Epoch)
	w.num(&a.Received)
	w.num(&a.Stripe)
	w.errStr(&a.Err)
}

// manifest walks the chunk map as one count of (hash u64, crc u32)
// records, so Hashes and CRCs always decode to equal lengths.
func (w *wire) manifest(m *Manifest) {
	w.num(&m.Job)
	w.num(&m.Epoch)
	w.num(&m.ChunkBytes)
	w.u32(&m.ImageCRC)
	w.num64(&m.TotalBytes)
	w.num(&m.Stripe)
	n := w.count(len(m.Hashes), 12)
	if !w.dec {
		for i, h := range m.Hashes {
			w.b = binary.BigEndian.AppendUint64(w.b, h)
			w.b = binary.BigEndian.AppendUint32(w.b, m.CRCs[i])
		}
		return
	}
	raw := w.take(n * 12) // count bounded n by the bytes left
	n = len(raw) / 12
	m.Hashes, m.CRCs = resize(m.Hashes, n), resize(m.CRCs, n)
	for i := range m.Hashes {
		m.Hashes[i] = binary.BigEndian.Uint64(raw[i*12:])
		m.CRCs[i] = binary.BigEndian.Uint32(raw[i*12+8:])
	}
}

func (w *wire) vec(v *place.Vec) {
	w.num64(&v.CPU)
	w.num64(&v.Mem)
	w.num64(&v.Net)
}

func (w *wire) register(r *Register) {
	w.num(&r.Node)
	w.num(&r.CPUs)
	w.str(&r.Addr)
	w.vec(&r.Cap)
}

func (w *wire) ints(p *[]int) {
	s := elems(w, p, 1)
	for i := range s {
		w.num(&s[i])
	}
}

func (w *wire) jobSpec(s *JobSpec) {
	w.str(&s.Name)
	w.num(&s.BinaryBytes)
	w.num(&s.Nodes)
	w.num(&s.PEsPerNode)
	w.str(&s.Program.Kind)
	w.dur(&s.Program.Duration)
	w.num(&s.Program.Grid)
	w.num(&s.Program.Iters)
	w.unum(&s.ImageSeed)
	w.patch(&s.ImagePatch)
	w.str(&s.User)
	w.num(&s.Weight)
	w.ints(&s.Place)
	w.vec(&s.Demand)
}

// patch walks an ImagePatch as (chunk varint, seed uvarint) pairs in
// ascending chunk order, so equal maps encode to equal bytes. Decoding
// requires strictly ascending chunks: a duplicate or out-of-order key is
// malformed, not silently merged.
func (w *wire) patch(p *map[int]uint64) {
	if !w.dec {
		w.count(len(*p), 2)
		var small [8]int
		keys := small[:0]
		for k := range *p {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			w.b = binary.AppendVarint(w.b, int64(k))
			w.b = binary.AppendUvarint(w.b, (*p)[k])
		}
		return
	}
	n := w.count(0, 2)
	if n == 0 || w.err != nil {
		*p = nil
		return
	}
	m := make(map[int]uint64, n)
	last := 0
	for i := 0; i < n; i++ {
		k := int(w.varint())
		v := w.uvarint()
		if w.err != nil {
			return
		}
		if i > 0 && k <= last {
			w.fail("patch keys not ascending")
			return
		}
		m[k], last = v, k
	}
	*p = m
}

func (w *wire) childRef(c *ChildRef) {
	w.num(&c.Node)
	w.str(&c.Addr)
}

func (w *wire) childRefs(p *[]ChildRef) {
	s := elems(w, p, 2)
	for i := range s {
		w.childRef(&s[i])
	}
}

func (w *wire) plan(p *Plan) {
	w.num(&p.Job)
	w.num(&p.Frags)
	w.num(&p.Fanout)
	w.num(&p.Stripes)
	s := elems(w, &p.Children, 1)
	for i := range s {
		w.childRefs(&s[i])
	}
}

func (w *wire) replan(p *Replan) {
	w.num(&p.Job)
	w.num(&p.Stripe)
	w.num(&p.Epoch)
	w.num(&p.Frags)
	w.num(&p.Fanout)
	w.num(&p.Resume)
	w.childRefs(&p.Children)
}

func (w *wire) launch(l *Launch) {
	w.num(&l.Job)
	w.jobSpec(&l.Spec)
	w.ints(&l.Ranks)
	w.num(&l.BinSize)
	w.num(&l.Row)
	w.flag(&l.Gang)
}

func (w *wire) report(r *Report) {
	w.num(&r.JobID)
	w.dur(&r.Send)
	w.dur(&r.Execute)
	w.dur(&r.Total)
	w.num64(&r.SendBytes)
	w.ints(&r.Failed)
	w.num(&r.Replans)
	w.dur(&r.Recovery)
	w.ints(&r.StripeReplans)
	w.num(&r.Chunks)
	w.num(&r.ChunksSent)
	w.num64(&r.BytesSaved)
	w.dur(&r.Queued)
	w.num(&r.Row)
	w.num(&r.WindowPeak)
	w.str(&r.Timeline)
	w.num(&r.Retries)
}

func (w *wire) ctlPlan(p *CtlPlan) {
	w.num(&p.Epoch)
	s := elems(w, &p.Children, 3)
	for i := range s {
		w.num(&s[i].Node)
		w.str(&s[i].Addr)
		w.ints(&s[i].Subtree)
	}
}

func (w *wire) statusRep(r *StatusRep) {
	w.ints(&r.Nodes)
	w.num(&r.Jobs)
	w.num(&r.Queued)
	w.num(&r.Launched)
	w.num(&r.Completed)
	w.num(&r.Strobes)
	w.flag(&r.Gang)
}
