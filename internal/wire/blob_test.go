package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net"
	"testing"
	"time"
)

// blobMsg is a message shaped like the agent's state carriers: a JSON field
// and bulk bytes that ride the frame's raw section.
type blobMsg struct {
	Tag  string `json:"tag"`
	Data []byte `json:"-"`
}

func (m blobMsg) WireBlob() []byte      { return m.Data }
func (m *blobMsg) SetWireBlob(b []byte) { m.Data = b }

// startBlobEcho serves "blob", which answers with the tag and raw section it
// was sent and fails if the bytes leaked into the JSON body, and "plain", a
// Handle handler that answers with a blob of its own.
func startBlobEcho(t testing.TB) *Server {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0", func(p *Peer) {
		p.HandleBlob("blob", func(_ string, body json.RawMessage, blob []byte) (any, error) {
			var req blobMsg
			if err := json.Unmarshal(body, &req); err != nil {
				return nil, err
			}
			if len(body) > 64 {
				return nil, errors.New("the blob rode the JSON body")
			}
			return blobMsg{Tag: req.Tag, Data: blob}, nil
		})
		p.Handle("plain", func(json.RawMessage) (any, error) {
			return blobMsg{Tag: "plain", Data: []byte("blob")}, nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// everyByte is n bytes cycling through all 256 values: nothing a text
// encoding would pass through unchanged.
func everyByte(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)
	}
	return b
}

func TestBlobRoundTrip(t *testing.T) {
	srv := startBlobEcho(t)
	p, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	go p.Run()
	t.Cleanup(func() { p.Close() })

	for _, n := range []int{0, 1, 300 << 10} {
		var out blobMsg
		if err := p.Call("blob", blobMsg{Tag: "t", Data: everyByte(n)}, &out); err != nil {
			t.Fatalf("%d-byte blob: %v", n, err)
		}
		if out.Tag != "t" || !bytes.Equal(out.Data, everyByte(n)) {
			t.Fatalf("%d-byte blob came back as tag %q, %d bytes", n, out.Tag, len(out.Data))
		}
	}
	// A blob nobody asked for is discarded, not an error.
	if err := p.Call("blob", blobMsg{Data: everyByte(100)}, nil); err != nil {
		t.Fatal(err)
	}
	var plain blobMsg
	if err := p.Call("plain", nil, &plain); err != nil || string(plain.Data) != "blob" {
		t.Fatalf("a plain Handle handler's blob arrived as %q, %v", plain.Data, err)
	}
	outs := make([]blobMsg, 3)
	calls := make([]BatchCall, len(outs))
	for i := range calls {
		calls[i] = BatchCall{Method: "blob", In: blobMsg{Data: everyByte(1000 + i)}, Out: &outs[i]}
	}
	for i, err := range p.CallBatch(calls) {
		if err != nil || len(outs[i].Data) != 1000+i {
			t.Fatalf("batched call %d: %d bytes back, %v", i, len(outs[i].Data), err)
		}
	}
	// The limit covers envelope and raw section together.
	if err := p.Call("blob", blobMsg{Data: make([]byte, MaxFrameBytes)}, nil); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("a blob of the whole limit: %v, want ErrFrameTooBig", err)
	}
}

// FrameLengths renders a frame's two length prefixes: envelope, then raw
// section. Exported for fault_test.go, which writes raw frames at a server
// from outside the package.
func FrameLengths(envelope, blob uint32) []byte {
	return binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, envelope), blob)
}

// rawFrame renders one frame as the bytes on the wire.
func rawFrame(envelope string, blob []byte) []byte {
	return append(append(FrameLengths(uint32(len(envelope)), uint32(len(blob))), envelope...), blob...)
}

// TestNotifyBlobIsSkipped sends a notification with a raw section nobody
// will consume: the body is delivered, the section is read past, and the
// connection stays in step for the request behind it.
func TestNotifyBlobIsSkipped(t *testing.T) {
	got := make(chan string, 1)
	srv, err := NewServer("127.0.0.1:0", func(p *Peer) {
		p.HandleNotify("tick", func(body json.RawMessage) { got <- string(body) })
		p.Handle("echo", func(body json.RawMessage) (any, error) { return body, nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.Write(rawFrame(`{"kind":"ntf","method":"tick","body":{"n":1}}`, everyByte(5000)))
	raw.Write(rawFrame(`{"kind":"req","id":9,"method":"echo","body":{"n":2}}`, nil))
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	res, err := readFrame(bufio.NewReader(raw))
	if err != nil || res.ID != 9 || string(res.Body) != `{"n":2}` {
		t.Fatalf("the request behind the notification: %+v, %v", res, err)
	}
	select {
	case body := <-got:
		if body != `{"n":1}` {
			t.Fatalf("notification body = %s", body)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("notification never delivered")
	}
}

// FuzzReadFrame feeds the frame decoder arbitrary bytes. It must never
// panic; a length pair past MaxFrameBytes is refused before anything is
// allocated for it; a raw section comes out as the bytes that went in; and
// whatever envelope decodes, with whatever blob behind it, survives
// writeFrame → readFrame unchanged.
func FuzzReadFrame(f *testing.F) {
	junk := bytes.Repeat([]byte{0xA5}, 100)
	for _, seed := range [][]byte{
		// wire/fault_test.go's four: garbage behind a plausible header, a
		// torn frame, an oversize prefix, an unknown kind.
		append(FrameLengths(100, 0), junk...),
		append(FrameLengths(64, 0), `{"kind":"req","me`...),
		FrameLengths(MaxFrameBytes+1, 0),
		rawFrame(`{"kind":"??","id":1}`, nil),
		// A raw section cut short, one whose length only breaks the limit
		// together with the envelope's, and one on a notification.
		rawFrame(`{"kind":"res","id":7,"body":{"chain":"c"}}`, everyByte(300))[:200],
		FrameLengths(2, MaxFrameBytes-1),
		rawFrame(`{"kind":"ntf","method":"manager.report","body":{}}`, everyByte(64)),
		rawFrame(`{"kind":"req","id":3,"method":"agent.restore","trace":"a-b-1","body":{"chain":"c"}}`, everyByte(1024)),
	} {
		f.Add(seed, []byte("blob"))
	}
	f.Fuzz(func(t *testing.T, stream, blob []byte) {
		fr, err := readFrame(bytes.NewReader(stream))
		var n, b uint64
		if len(stream) >= 8 {
			n, b = uint64(binary.BigEndian.Uint32(stream[:4])), uint64(binary.BigEndian.Uint32(stream[4:8]))
			if (n+b > MaxFrameBytes) != errors.Is(err, ErrFrameTooBig) {
				t.Fatalf("lengths %d+%d: %v", n, b, err)
			}
		}
		if err != nil {
			return
		}
		if !bytes.Equal(fr.Blob, stream[8+n:8+n+b]) {
			t.Fatalf("raw section of %d bytes decoded as %d other bytes", b, len(fr.Blob))
		}
		// json.Marshal re-renders a RawMessage (compacted, HTML-escaped), so
		// the body is compared from its first re-rendering on.
		fr.Blob = blob
		once := reread(t, fr)
		fr.Body = once.Body
		if twice := reread(t, once); !sameFrame(once, fr) || !sameFrame(twice, fr) {
			t.Fatalf("wrote %+v, read %+v, then %+v", fr, once, twice)
		}
	})
}

func sameFrame(a, b *frame) bool {
	return a.Kind == b.Kind && a.ID == b.ID && a.Method == b.Method && a.Trace == b.Trace &&
		a.Error == b.Error && bytes.Equal(a.Body, b.Body) && bytes.Equal(a.Blob, b.Blob)
}

func reread(t *testing.T, f *frame) *frame {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, f); err != nil {
		if errors.Is(err, ErrFrameTooBig) {
			t.Skip("the fuzzer's blob pushed the frame past the limit")
		}
		t.Fatalf("writeFrame(%+v): %v", f, err)
	}
	got, err := readFrame(&buf)
	if err != nil || buf.Len() != 0 {
		t.Fatalf("readFrame of a written frame: %v, %d bytes left", err, buf.Len())
	}
	return got
}
