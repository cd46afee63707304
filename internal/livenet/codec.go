package livenet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/place"
)

// Control-frame kinds: the first payload byte of a 'G' frame. The body
// that follows is the kind's field walk below — varints for integers and
// durations, uvarint-length-prefixed strings and slices, one byte per
// bool. Nothing on the wire is self-describing, so a link costs no
// per-connection codec state and a fresh conn encodes its first message
// as cheaply as its thousandth.
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

// ctlFrameHdr is the 'G' envelope ahead of the kind byte: type byte and
// u32 payload length (the kind byte counts toward the length).
const ctlFrameHdr = 5

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

// appendControl appends kind and m's control body to b.
func appendControl(b []byte, kind byte, m *Message) []byte {
	w := wire{b: append(b, kind)}
	w.body(kind, m)
	return w.b
}

// decodeControl decodes one 'G' payload (kind byte, then body). It is
// strict: an unknown kind, a short body, trailing bytes, a bool byte
// other than 0/1, or unsorted patch keys is an error, never a panic. No
// element count is trusted beyond the bytes left to back it, so the
// decoder allocates at most a small constant multiple of len(p) however
// the payload is corrupted. Empty slices and maps decode as nil.
func decodeControl(p []byte) (Message, error) {
	var m Message
	if len(p) == 0 {
		return m, errors.New("livenet: empty control frame")
	}
	w := wire{b: p[1:], dec: true}
	if !w.body(p[0], &m) {
		return Message{}, fmt.Errorf("livenet: unknown control kind %d", p[0])
	}
	if err := w.finish(); err != nil {
		return Message{}, err
	}
	return m, nil
}

// wire is the control-body codec. Each message type has one walk method
// that lists its fields in wire order; the same walk encodes (appending
// to b) or decodes (consuming b), so the two directions cannot drift
// apart. Encoding never writes through the walked pointers — the MM
// encodes one shared JobSpec into many links concurrently. Decode errors
// are sticky: after the first, every step is a no-op.
type wire struct {
	b   []byte
	dec bool
	err error
}

func (w *wire) fail(what string) {
	if w.err == nil {
		w.err = fmt.Errorf("livenet: malformed control frame: %s", what)
	}
	w.b = nil
}

// finish reports the decode error, or trailing bytes the walk left.
func (w *wire) finish() error {
	if w.err == nil && len(w.b) > 0 {
		w.err = fmt.Errorf("livenet: malformed control frame: %d trailing bytes", len(w.b))
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

// wireSlice walks a slice whose elements each occupy at least minWire
// bytes. An empty slice decodes as nil.
func wireSlice[T any](w *wire, p *[]T, minWire int, elem func(*wire, *T)) {
	n := w.count(len(*p), minWire)
	if !w.dec {
		for i := range *p {
			elem(w, &(*p)[i])
		}
		return
	}
	if n == 0 || w.err != nil {
		*p = nil
		return
	}
	s := make([]T, n)
	for i := range s {
		elem(w, &s[i])
	}
	*p = s
}

// walk allocates the message struct on decode and walks it.
func walk[T any](w *wire, p **T, f func(*wire, *T)) {
	if w.dec {
		*p = new(T)
	}
	f(w, *p)
}

// body walks the control field of the given kind; false for an unknown
// kind.
func (w *wire) body(kind byte, m *Message) bool {
	switch kind {
	case kindRegister:
		walk(w, &m.Register, (*wire).register)
	case kindSubmit:
		walk(w, &m.Submit, func(w *wire, s *Submit) { w.jobSpec(&s.Spec) })
	case kindPlan:
		walk(w, &m.Plan, (*wire).plan)
	case kindReplan:
		walk(w, &m.Replan, (*wire).replan)
	case kindChildDead:
		walk(w, &m.ChildDead, func(w *wire, d *ChildDead) {
			w.num(&d.Job)
			w.num(&d.Stripe)
			w.num(&d.Node)
		})
	case kindAbort:
		walk(w, &m.Abort, func(w *wire, a *Abort) {
			w.num(&a.Job)
			w.str(&a.Reason)
		})
	case kindLaunch:
		walk(w, &m.Launch, (*wire).launch)
	case kindTerm:
		walk(w, &m.Term, func(w *wire, t *Term) {
			w.num(&t.Job)
			w.num(&t.Node)
		})
	case kindDone:
		walk(w, &m.Done, func(w *wire, d *Done) {
			w.report(&d.Report)
			w.str(&d.Err)
		})
	case kindCtlPlan:
		walk(w, &m.CtlPlan, (*wire).ctlPlan)
	case kindStatusQ:
		walk(w, &m.StatusQ, func(*wire, *StatusReq) {})
	case kindStatusR:
		walk(w, &m.StatusR, (*wire).statusRep)
	case kindRejoin:
		// Rejoin carries exactly Register's fields.
		walk(w, &m.Rejoin, func(w *wire, r *Rejoin) { w.register((*Register)(r)) })
	case kindRejoinAck:
		walk(w, &m.RejoinAck, func(w *wire, a *RejoinAck) {
			w.num(&a.Probation)
			w.str(&a.Err)
		})
	default:
		return false
	}
	return true
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

func (w *wire) ints(p *[]int) { wireSlice(w, p, 1, (*wire).num) }

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

func (w *wire) childRefs(p *[]ChildRef) { wireSlice(w, p, 2, (*wire).childRef) }

func (w *wire) plan(p *Plan) {
	w.num(&p.Job)
	w.num(&p.Frags)
	w.num(&p.Fanout)
	w.num(&p.Stripes)
	wireSlice(w, &p.Children, 1, (*wire).childRefs)
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
	wireSlice(w, &p.Children, 3, func(w *wire, c *CtlChild) {
		w.num(&c.Node)
		w.str(&c.Addr)
		w.ints(&c.Subtree)
	})
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
