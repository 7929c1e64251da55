// Package wire implements GNF's control-plane protocol: length-prefixed
// frames over TCP carrying bidirectional request/response RPC plus
// one-way notifications. The Manager keeps one Peer per Agent connection
// (§3: "keeping a connection with all the Agents in the network"); both
// ends can initiate calls over the same connection — the Manager pushes NF
// deployments down, Agents push health reports and NF notifications up.
//
// Framing: JSON bodies in a binary envelope. Two 4-byte big-endian lengths,
// then an envelope of the first length and a raw byte section of the second.
// The envelope is a kind byte, the id as a uvarint, three uvarint-length
// strings (method, trace, error) and, in its remaining bytes, the JSON body:
//
//	| 1 req | id 7 | "agent.deploy" | "" | "" | {...} |  request
//	| 2 res | id 7 | ""             | "" | "" | {...} |  success
//	| 2 res | id 7 | ""             | "" | "no such image" | failure
//	| 3 ntf | id 0 | "nf.alert"     | "" | "" | {...} |  notification
//
// Nothing scans a body but the code that decodes it: the sender renders the
// head (lengths and envelope) into one buffer, and the receiver hands the
// body on as a slice of the envelope it read.
//
// The raw section is empty for almost every frame. It carries what a message
// hands over through WireBlob — a chain's exported state, hundreds of
// kilobytes that would otherwise be base64'd into the body and scanned by
// every JSON pass over the frame — and the receiving side hands it to the
// decoded message's SetWireBlob (a Call's out) or to the BlobHandler (a
// request). Both ends of a connection are built from one tree, so there is
// one layout and no version byte to negotiate it.
package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// MaxFrameBytes bounds a single frame, envelope plus raw section; larger
// frames poison the connection and are rejected.
const MaxFrameBytes = 16 << 20

// maxNotifyQueue and maxNotifyBytes bound the per-peer
// pending-notification FIFO, by entry count and by payload bytes (one
// maximum-size frame can carry 16 MiB, so an entry cap alone would not
// bound the heap); overflow drops the oldest entries (see Peer.nqueue).
const (
	maxNotifyQueue = 4096
	maxNotifyBytes = 16 << 20
)

// Frame kinds: the envelope's first byte. Any other value is a peer out of
// step, and the connection is cut.
const (
	kindRequest  byte = 1
	kindResponse byte = 2
	kindNotify   byte = 3
)

// Errors returned by Peer operations.
var (
	ErrClosed      = errors.New("wire: peer closed")
	ErrFrameTooBig = errors.New("wire: frame exceeds limit")
	ErrCallTimeout = errors.New("wire: call timed out")
	ErrNoHandler   = errors.New("wire: no handler for method")
	ErrBadFrame    = errors.New("wire: malformed frame")
)

// frame is one decoded frame. Trace carries opaque tracing metadata (an
// encoded trace context) alongside requests; it is empty on untraced
// traffic, one zero byte on the wire.
type frame struct {
	Kind   byte
	ID     uint64
	Method string
	Trace  string
	Error  string
	// Body is the JSON body, as it was handed to the sender; on a read frame
	// it is the tail of the envelope buffer, scanned by nobody but its decoder.
	Body json.RawMessage
	// Blob is the frame's raw section: written behind the envelope as it is,
	// read into a buffer of its own and never copied or scanned after that.
	Blob []byte
}

// prefixLen is the two length prefixes in front of every envelope.
const prefixLen = 8

// envelopeLen is the byte length of f's envelope.
func (f *frame) envelopeLen() int {
	n := 1 + uvarintLen(f.ID) + len(f.Body)
	for _, s := range [...]string{f.Method, f.Trace, f.Error} {
		n += uvarintLen(uint64(len(s))) + len(s)
	}
	return n
}

// uvarintLen is the byte length of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// appendHead appends f's head — its two length prefixes and its envelope —
// to dst. The caller has checked the frame against MaxFrameBytes.
func appendHead(dst []byte, f *frame) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(f.envelopeLen()))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(f.Blob)))
	dst = append(dst, f.Kind)
	dst = binary.AppendUvarint(dst, f.ID)
	for _, s := range [...]string{f.Method, f.Trace, f.Error} {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return append(dst, f.Body...)
}

// headLen is the byte length of f's head, or ErrFrameTooBig if the frame
// with its raw section would break the limit.
func headLen(f *frame) (int, error) {
	n := f.envelopeLen()
	if n+len(f.Blob) > MaxFrameBytes {
		return 0, ErrFrameTooBig
	}
	return prefixLen + n, nil
}

// renderHead renders f's head into a buffer of exactly its size.
func renderHead(f *frame) ([]byte, error) {
	n, err := headLen(f)
	if err != nil {
		return nil, err
	}
	return appendHead(make([]byte, 0, n), f), nil
}

// readFrame reads one frame. Both lengths are checked against the limit
// before anything is allocated for them.
func readFrame(r *bufio.Reader) (*frame, error) {
	hdr, err := r.Peek(prefixLen)
	if err != nil {
		if len(hdr) > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n, b := binary.BigEndian.Uint32(hdr[:4]), binary.BigEndian.Uint32(hdr[4:])
	r.Discard(prefixLen) // cannot fail: Peek buffered them
	if uint64(n)+uint64(b) > MaxFrameBytes {
		return nil, ErrFrameTooBig
	}
	env := make([]byte, n)
	if _, err := io.ReadFull(r, env); err != nil {
		return nil, err
	}
	f := new(frame)
	if err := f.parseEnvelope(env); err != nil {
		return nil, err
	}
	if b > 0 {
		f.Blob = make([]byte, b)
		if _, err := io.ReadFull(r, f.Blob); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// parseEnvelope fills f from env. The three strings share one allocation
// (none when all are empty); the body is env's tail, not a copy. A kind
// byte it does not know, a uvarint that is cut short, overlong or not in
// its shortest form, and a string running past the envelope are
// ErrBadFrame: the two ends no longer agree on where the frames are.
func (f *frame) parseEnvelope(env []byte) error {
	if len(env) == 0 {
		return fmt.Errorf("%w: empty envelope", ErrBadFrame)
	}
	switch f.Kind = env[0]; f.Kind {
	case kindRequest, kindResponse, kindNotify:
	default:
		return fmt.Errorf("%w: unknown kind %#x", ErrBadFrame, f.Kind)
	}
	off := 1
	uvarint := func() (uint64, error) {
		v, k := binary.Uvarint(env[off:])
		if k <= 0 || (k > 1 && env[off+k-1] == 0) {
			return 0, fmt.Errorf("%w: bad uvarint at byte %d", ErrBadFrame, off)
		}
		off += k
		return v, nil
	}
	var err error
	if f.ID, err = uvarint(); err != nil {
		return err
	}
	var at [3][2]int // each string's start and end in env
	total := 0
	for i := range at {
		l, err := uvarint()
		if err != nil {
			return err
		}
		if l > uint64(len(env)-off) {
			return fmt.Errorf("%w: string of %d bytes past the envelope", ErrBadFrame, l)
		}
		at[i] = [2]int{off, off + int(l)}
		off += int(l)
		total += int(l)
	}
	if total > 0 {
		base := at[0][0]
		strs := string(env[base:off])
		sub := func(i int) string { return strs[at[i][0]-base : at[i][1]-base] }
		f.Method, f.Trace, f.Error = sub(0), sub(1), sub(2)
	}
	if off < len(env) {
		f.Body = env[off:]
	}
	return nil
}

// A message that carries bulk bytes keeps them out of its JSON (`json:"-"`)
// and implements blobCarrier to send them, blobTaker (on its pointer) to
// receive them as a Call's out.
type (
	blobCarrier interface{ WireBlob() []byte }
	blobTaker   interface{ SetWireBlob([]byte) }
)

// encode renders an outgoing message: its JSON body, and the bytes it wants
// in the frame's raw section if it is one of the few that carry any.
func encode(v any) (body json.RawMessage, blob []byte, err error) {
	if body, err = json.Marshal(v); err != nil {
		return nil, nil, err
	}
	if c, ok := v.(blobCarrier); ok {
		blob = c.WireBlob()
	}
	return body, blob, nil
}

// decode fills out (nil discards) from a response: the body, then the raw
// section — the buffer readFrame filled, handed over, not copied.
func decode(res *frame, out any) error {
	if out == nil {
		return nil
	}
	if len(res.Body) > 0 {
		if err := json.Unmarshal(res.Body, out); err != nil {
			return err
		}
	}
	if t, ok := out.(blobTaker); ok {
		t.SetWireBlob(res.Blob)
	}
	return nil
}

// Handler serves one RPC method. The returned value is marshalled as the
// response body; a non-nil error produces an error response.
type Handler func(body json.RawMessage) (any, error)

// TracedHandler is a Handler that also receives the request's trace
// metadata ("" when the caller did not trace). Receivers must treat the
// string as opaque and advisory: a malformed value is never an error.
type TracedHandler func(traceMeta string, body json.RawMessage) (any, error)

// BlobHandler is a TracedHandler that also receives the request's raw
// section (nil for a request that carried none).
type BlobHandler func(traceMeta string, body json.RawMessage, blob []byte) (any, error)

// NotifyHandler consumes a one-way notification.
type NotifyHandler func(body json.RawMessage)

// Peer is one end of a control connection. Create with NewPeer, register
// handlers, then call Run (usually in a goroutine) to start dispatching.
type Peer struct {
	conn net.Conn
	wmu  sync.Mutex // serialises frame writes

	mu       sync.Mutex
	handlers map[string]BlobHandler
	notify   map[string]NotifyHandler
	pending  map[uint64]chan *frame
	closed   bool
	closeErr error
	onClose  []func(error)

	// Notifications are dispatched off the read loop (a notify handler
	// may Call back over the same peer, and a slow handler must not
	// stall response dispatch) but in arrival order, on one goroutine
	// draining this FIFO. The queue is bounded: blocking the read loop
	// on a full queue would reintroduce the deadlock, so overflow drops
	// the oldest entry instead (notifications are fire-and-forget;
	// under sustained overload the freshest data wins).
	nmu      sync.Mutex
	ncond    *sync.Cond
	nqueue   []*frame
	nbytes   int // sum of queued body sizes
	nclosed  bool
	ndropped atomic.Uint64

	nextID      atomic.Uint64
	callTimeout atomic.Int64 // time.Duration; read by Call, set by SetCallTimeout
}

// NewPeer wraps an established connection. The peer does not read until
// Run is called.
func NewPeer(conn net.Conn) *Peer {
	p := &Peer{
		conn:     conn,
		handlers: make(map[string]BlobHandler),
		notify:   make(map[string]NotifyHandler),
		pending:  make(map[uint64]chan *frame),
	}
	p.ncond = sync.NewCond(&p.nmu)
	p.callTimeout.Store(int64(10 * time.Second))
	return p
}

// SetCallTimeout adjusts the per-call deadline (default 10s). It is safe
// to call concurrently with in-flight Calls; calls already waiting keep
// the deadline they started with.
func (p *Peer) SetCallTimeout(d time.Duration) { p.callTimeout.Store(int64(d)) }

// Handle registers a request handler for method. Handlers run on their own
// goroutine, so they may issue Calls back over the same peer.
func (p *Peer) Handle(method string, h Handler) {
	p.HandleTraced(method, func(_ string, body json.RawMessage) (any, error) {
		return h(body)
	})
}

// HandleTraced registers a handler that also sees the request's trace
// metadata. Handlers run on their own goroutine, so they may issue Calls
// back over the same peer — which is exactly how traced agents flush
// finished spans to the manager before responding.
func (p *Peer) HandleTraced(method string, h TracedHandler) {
	p.HandleBlob(method, func(traceMeta string, body json.RawMessage, _ []byte) (any, error) {
		return h(traceMeta, body)
	})
}

// HandleBlob registers a handler that also sees the request's raw section:
// the methods whose request is a message with a WireBlob.
func (p *Peer) HandleBlob(method string, h BlobHandler) {
	p.mu.Lock()
	p.handlers[method] = h
	p.mu.Unlock()
}

// HandleNotify registers a notification consumer for method.
func (p *Peer) HandleNotify(method string, h NotifyHandler) {
	p.mu.Lock()
	p.notify[method] = h
	p.mu.Unlock()
}

// DroppedNotifies reports notifications discarded because the pending
// queue overflowed (a handler persistently slower than the sender).
func (p *Peer) DroppedNotifies() uint64 { return p.ndropped.Load() }

// OnClose registers a callback invoked once when the peer shuts down.
func (p *Peer) OnClose(fn func(error)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		go fn(p.closeErr)
		return
	}
	p.onClose = append(p.onClose, fn)
}

// RemoteAddr reports the peer's network address.
func (p *Peer) RemoteAddr() string { return p.conn.RemoteAddr().String() }

// Run reads frames until the connection fails or Close is called. It
// always returns a non-nil error (io.EOF on clean shutdown by the remote).
func (p *Peer) Run() error {
	go p.notifyLoop()
	r := bufio.NewReader(p.conn)
	for {
		f, err := readFrame(r)
		if err != nil {
			p.shutdown(err)
			return err
		}
		switch f.Kind { // readFrame refused every other kind
		case kindRequest:
			go p.serve(f)
		case kindResponse:
			p.mu.Lock()
			ch, ok := p.pending[f.ID]
			delete(p.pending, f.ID)
			p.mu.Unlock()
			if ok {
				ch <- f
			}
		case kindNotify:
			// Nothing consumes a notification's raw section, and the queue's
			// byte bound counts bodies only.
			f.Blob = nil
			p.nmu.Lock()
			if !p.nclosed {
				for len(p.nqueue) > 0 &&
					(len(p.nqueue) >= maxNotifyQueue || p.nbytes+len(f.Body) > maxNotifyBytes) {
					p.nbytes -= len(p.nqueue[0].Body)
					p.nqueue[0] = nil
					p.nqueue = p.nqueue[1:]
					p.ndropped.Add(1)
				}
				p.nqueue = append(p.nqueue, f)
				p.nbytes += len(f.Body)
				p.ncond.Signal()
			}
			p.nmu.Unlock()
		}
	}
}

// notifyLoop drains queued notifications in arrival order. Running them
// off the read loop means a handler that Calls back over the same peer
// sees its response dispatched normally instead of deadlocking until the
// call timeout, and a slow handler cannot stall in-flight responses.
func (p *Peer) notifyLoop() {
	for {
		p.nmu.Lock()
		for len(p.nqueue) == 0 && !p.nclosed {
			p.ncond.Wait()
		}
		if len(p.nqueue) == 0 {
			p.nmu.Unlock()
			return
		}
		f := p.nqueue[0]
		p.nqueue[0] = nil
		p.nqueue = p.nqueue[1:]
		p.nbytes -= len(f.Body)
		p.nmu.Unlock()

		p.mu.Lock()
		h := p.notify[f.Method]
		p.mu.Unlock()
		if h != nil {
			h(f.Body)
		}
	}
}

// serve runs one request handler and writes the response.
func (p *Peer) serve(req *frame) {
	p.mu.Lock()
	h := p.handlers[req.Method]
	p.mu.Unlock()
	res := frame{Kind: kindResponse, ID: req.ID}
	if h == nil {
		res.Error = ErrNoHandler.Error() + ": " + req.Method
	} else {
		out, err := h(req.Trace, req.Body, req.Blob)
		if err != nil {
			res.Error = err.Error()
		} else if out != nil {
			if res.Body, res.Blob, err = encode(out); err != nil {
				res.Error = "wire: marshal response: " + err.Error()
			}
		}
	}
	p.send(&res)
}

// send writes one frame. Its head is rendered before the writer lock is
// taken, so the lock covers the write alone.
func (p *Peer) send(f *frame) error {
	head, err := renderHead(f)
	if err != nil {
		return err
	}
	if len(f.Blob) == 0 {
		return p.write(head)
	}
	return p.write(head, f.Blob)
}

// write puts rendered frames on the connection, serialised against
// concurrent writers: one Write for a single buffer, one writev for a head
// with a raw section behind it.
func (p *Peer) write(bufs ...[]byte) error {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if len(bufs) == 1 {
		_, err := p.conn.Write(bufs[0])
		return err
	}
	// WriteTo consumes its receiver; the copy keeps bufs on the caller's stack.
	vec := append(net.Buffers(nil), bufs...)
	_, err := vec.WriteTo(p.conn)
	return err
}

// Call sends a request and decodes the response body into out (which may
// be nil to discard). It fails after the call timeout.
func (p *Peer) Call(method string, in, out any) error {
	return p.CallTraced(method, "", in, out)
}

// CallTraced is Call with trace metadata riding the request envelope.
// An empty traceMeta is exactly Call — no tracing bytes on the wire.
func (p *Peer) CallTraced(method, traceMeta string, in, out any) error {
	body, blob, err := encode(in)
	if err != nil {
		return err
	}
	id := p.nextID.Add(1)
	ch := make(chan *frame, 1)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	p.pending[id] = ch
	p.mu.Unlock()

	req := frame{Kind: kindRequest, ID: id, Method: method, Trace: traceMeta, Body: body, Blob: blob}
	if err := p.send(&req); err != nil {
		p.mu.Lock()
		delete(p.pending, id)
		p.mu.Unlock()
		return err
	}
	var timeout <-chan time.Time
	if d := time.Duration(p.callTimeout.Load()); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case res := <-ch:
		if res == nil {
			return ErrClosed
		}
		if res.Error != "" {
			return errors.New(res.Error)
		}
		return decode(res, out)
	case <-timeout:
		p.mu.Lock()
		delete(p.pending, id)
		p.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrCallTimeout, method)
	}
}

// BatchCall is one element of a CallBatch: a method, its request body and
// an optional response destination (nil discards the response).
type BatchCall struct {
	Method string
	In     any
	Out    any
}

// CallBatch sends every call as one write: the request heads are rendered
// back-to-back into one buffer, written under a single writer-lock
// acquisition (a writev when raw sections ride between them), then the
// responses are awaited together under one shared deadline. Compared with N
// sequential Calls this removes N-1 writer-lock handoffs, N-1 writes and
// N-1 serialised round-trip waits — the difference between a storm of
// control updates convoying on wmu and one coalesced install. The result is
// per-call (nil = success), in input order.
func (p *Peer) CallBatch(calls []BatchCall) []error {
	errs := make([]error, len(calls))
	if len(calls) == 0 {
		return errs
	}
	frames := make([]frame, len(calls))
	chans := make([]chan *frame, len(calls))
	size := 0
	for i, c := range calls {
		body, blob, err := encode(c.In)
		if err != nil {
			errs[i] = err
			continue
		}
		frames[i] = frame{Kind: kindRequest, ID: p.nextID.Add(1), Method: c.Method, Body: body, Blob: blob}
		n, err := headLen(&frames[i])
		if err != nil {
			errs[i] = err
			continue
		}
		size += n
	}
	heads := make([]byte, 0, size)
	var bufs [][]byte // runs of heads, with each raw section between them
	last := 0
	for i := range frames {
		if errs[i] != nil {
			continue
		}
		heads = appendHead(heads, &frames[i])
		if blob := frames[i].Blob; len(blob) > 0 {
			bufs = append(bufs, heads[last:], blob)
			last = len(heads)
		}
	}
	if last < len(heads) {
		bufs = append(bufs, heads[last:])
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		for i := range calls {
			if errs[i] == nil {
				errs[i] = ErrClosed
			}
		}
		return errs
	}
	for i := range calls {
		if errs[i] == nil {
			chans[i] = make(chan *frame, 1)
			p.pending[frames[i].ID] = chans[i]
		}
	}
	p.mu.Unlock()

	var werr error
	if len(bufs) > 0 {
		werr = p.write(bufs...)
	}
	if werr != nil {
		// The connection is poisoned mid-batch; fail every registered call.
		p.mu.Lock()
		for i := range calls {
			if chans[i] != nil {
				delete(p.pending, frames[i].ID)
				if errs[i] == nil {
					errs[i] = werr
				}
			}
		}
		p.mu.Unlock()
		return errs
	}

	var timeout <-chan time.Time
	if d := time.Duration(p.callTimeout.Load()); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		timeout = t.C
	}
	for i := range calls {
		if chans[i] == nil {
			continue
		}
		select {
		case res := <-chans[i]:
			switch {
			case res == nil:
				errs[i] = ErrClosed
			case res.Error != "":
				errs[i] = errors.New(res.Error)
			default:
				errs[i] = decode(res, calls[i].Out)
			}
		case <-timeout:
			p.mu.Lock()
			delete(p.pending, frames[i].ID)
			p.mu.Unlock()
			errs[i] = fmt.Errorf("%w: %s", ErrCallTimeout, calls[i].Method)
		}
	}
	return errs
}

// Notify sends a one-way notification (no response expected). It carries a
// body only: no notification has a raw section.
func (p *Peer) Notify(method string, in any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return p.send(&frame{Kind: kindNotify, Method: method, Body: body})
}

// Close tears the connection down.
func (p *Peer) Close() error {
	p.shutdown(ErrClosed)
	return nil
}

func (p *Peer) shutdown(err error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.closeErr = err
	pending := p.pending
	p.pending = map[uint64]chan *frame{}
	callbacks := p.onClose
	p.onClose = nil
	p.mu.Unlock()

	// Stop the notify dispatcher; undelivered notifications are dropped
	// (the connection is gone — same outcome as frames still in flight).
	p.nmu.Lock()
	p.nclosed = true
	p.nqueue = nil
	p.nbytes = 0
	p.ncond.Broadcast()
	p.nmu.Unlock()

	p.conn.Close()
	for _, ch := range pending {
		ch <- nil
	}
	for _, fn := range callbacks {
		fn(err)
	}
}

// Server accepts connections and hands each to an acceptor that wires up a
// Peer (registering handlers) before its Run loop starts.
type Server struct {
	ln     net.Listener
	accept func(*Peer)
	wg     sync.WaitGroup

	mu     sync.Mutex
	peers  map[*Peer]struct{}
	closed bool
}

// NewServer listens on addr ("127.0.0.1:0" for an ephemeral port) and
// invokes accept for every inbound connection.
func NewServer(addr string, accept func(*Peer)) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, accept: accept, peers: make(map[*Peer]struct{})}
	s.wg.Add(1)
	go s.loop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) loop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		peer := NewPeer(conn)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.peers[peer] = struct{}{}
		s.mu.Unlock()
		peer.OnClose(func(error) {
			s.mu.Lock()
			delete(s.peers, peer)
			s.mu.Unlock()
		})
		s.accept(peer)
		go peer.Run()
	}
}

// Close stops accepting and closes every live peer.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	peers := make([]*Peer, 0, len(s.peers))
	for p := range s.peers {
		peers = append(peers, p)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, p := range peers {
		p.Close()
	}
	s.wg.Wait()
	return err
}

// Dial connects to a wire server. The returned peer is not yet reading:
// register handlers, then start `go peer.Run()` — the same order the
// server side guarantees via its accept callback, so no request can race
// handler registration.
func Dial(addr string) (*Peer, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return NewPeer(conn), nil
}
