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
// was sent and fails if the bytes leaked into the JSON body, "plain", a
// Handle handler that answers with a blob of its own, and "tag", a Handle
// handler that answers with the tag of the request's JSON body.
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
		p.Handle("tag", func(body json.RawMessage) (any, error) {
			var req blobMsg
			err := json.Unmarshal(body, &req)
			return req.Tag, err
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
		// A Handle handler never sees a request's raw section, but gets its
		// body whole.
		var tag string
		if err := p.Call("tag", blobMsg{Tag: "t", Data: everyByte(n)}, &tag); err != nil || tag != "t" {
			t.Fatalf("a plain Handle handler sent a %d-byte blob answered %q, %v", n, tag, err)
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

// The kind bytes, exported for fault_test.go.
const (
	KindRequest  = kindRequest
	KindResponse = kindResponse
	KindNotify   = kindNotify
)

// RawFrame renders one frame as the bytes on the wire, whatever its kind
// byte and size, so a test can write frames this package would refuse to
// send. Exported for fault_test.go.
func RawFrame(kind byte, id uint64, method, trace, errMsg, body string, blob []byte) []byte {
	f := frame{Kind: kind, ID: id, Method: method, Trace: trace, Error: errMsg, Body: json.RawMessage(body), Blob: blob}
	return append(appendHead(nil, &f), blob...)
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
	raw.Write(RawFrame(kindNotify, 0, "tick", "", "", `{"n":1}`, everyByte(5000)))
	raw.Write(RawFrame(kindRequest, 9, "echo", "", "", `{"n":2}`, nil))
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	res, err := readFrame(bufio.NewReader(raw))
	if err != nil || res.Kind != kindResponse || res.ID != 9 || string(res.Body) != `{"n":2}` {
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
// allocated for it; a raw section comes out as the bytes that went in; a
// frame that decodes re-encodes to exactly the bytes it was read from; and
// with another raw section behind it, it survives a write and a read.
func FuzzReadFrame(f *testing.F) {
	junk := bytes.Repeat([]byte{0xA5}, 100)
	envelope := func(env ...byte) []byte { return append(FrameLengths(uint32(len(env)), 0), env...) }
	for _, seed := range [][]byte{
		// fault_test.go's four: garbage behind a plausible header, a torn
		// frame, an oversize prefix, an unknown kind byte.
		append(FrameLengths(100, 0), junk...),
		RawFrame(kindRequest, 1, "echo", "", "", `{"n":1}`, nil)[:17],
		FrameLengths(MaxFrameBytes+1, 0),
		RawFrame(0x7b, 1, "", "", "", "", nil),
		// A raw section cut short, one whose length only breaks the limit
		// together with the envelope's, and one on a notification.
		RawFrame(kindResponse, 7, "", "", "", `{"chain":"c"}`, everyByte(300))[:200],
		FrameLengths(2, MaxFrameBytes-1),
		RawFrame(kindNotify, 0, "manager.report", "", "", `{}`, everyByte(64)),
		// Each kind with every field set.
		RawFrame(kindRequest, 3, "agent.restore", "0a1b000000000001-0a1b000000000002-1", "e", `{"chain":"c"}`, everyByte(1024)),
		RawFrame(kindResponse, 1<<40, "m", "t", "no such chain", `{"chain":"c"}`, everyByte(3)),
		RawFrame(kindNotify, 300, "nf.alert", "t", "e", `{"nf":"fw"}`, nil),
		// A string length running past the envelope, an empty envelope, an
		// id that is not in its shortest form, and one cut short.
		envelope(kindRequest, 1, 2, 'e'),
		envelope(),
		envelope(kindResponse, 0x81, 0x00, 0, 0, 0),
		envelope(kindResponse, 0x81),
	} {
		f.Add(seed, []byte("blob"))
	}
	f.Fuzz(func(t *testing.T, stream, blob []byte) {
		fr, err := readFrame(bufio.NewReader(bytes.NewReader(stream)))
		var n, b uint64
		if len(stream) >= prefixLen {
			n, b = uint64(binary.BigEndian.Uint32(stream[:4])), uint64(binary.BigEndian.Uint32(stream[4:8]))
			if (n+b > MaxFrameBytes) != errors.Is(err, ErrFrameTooBig) {
				t.Fatalf("lengths %d+%d: %v", n, b, err)
			}
		}
		if err != nil {
			return
		}
		read := stream[:prefixLen+n+b]
		if !bytes.Equal(fr.Blob, read[prefixLen+n:]) {
			t.Fatalf("raw section of %d bytes decoded as %d other bytes", b, len(fr.Blob))
		}
		head, err := renderHead(fr)
		if err != nil || !bytes.Equal(append(head, fr.Blob...), read) {
			t.Fatalf("read %x, decoded %+v, re-encoded %x (%v)", read, fr, append(head, fr.Blob...), err)
		}
		fr.Blob = blob
		if again := reread(t, fr); !sameFrame(again, fr) {
			t.Fatalf("wrote %+v, read %+v", fr, again)
		}
	})
}

func sameFrame(a, b *frame) bool {
	return a.Kind == b.Kind && a.ID == b.ID && a.Method == b.Method && a.Trace == b.Trace &&
		a.Error == b.Error && bytes.Equal(a.Body, b.Body) && bytes.Equal(a.Blob, b.Blob)
}

func reread(t *testing.T, f *frame) *frame {
	t.Helper()
	head, err := renderHead(f)
	if err != nil {
		if errors.Is(err, ErrFrameTooBig) {
			t.Skip("the fuzzer's blob pushed the frame past the limit")
		}
		t.Fatalf("renderHead(%+v): %v", f, err)
	}
	r := bufio.NewReader(bytes.NewReader(append(head, f.Blob...)))
	got, err := readFrame(r)
	if err != nil || r.Buffered() != 0 {
		t.Fatalf("readFrame of a written frame: %v, %d bytes left", err, r.Buffered())
	}
	return got
}
