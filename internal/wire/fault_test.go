package wire_test

import (
	"encoding/json"
	"errors"
	"net"
	"testing"
	"time"

	"gnf/internal/wire"
)

// faultServer starts a server that echoes on "echo" and reports accepted
// peers.
func faultServer(t *testing.T) (*wire.Server, chan *wire.Peer) {
	t.Helper()
	accepted := make(chan *wire.Peer, 8)
	srv, err := wire.NewServer("127.0.0.1:0", func(p *wire.Peer) {
		p.Handle("echo", func(body json.RawMessage) (any, error) {
			return json.RawMessage(body), nil
		})
		accepted <- p
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, accepted
}

// TestGarbageBytesDoNotKillServer writes raw garbage at a server: the
// poisoned connection dies, but the listener and other peers keep
// working.
func TestGarbageBytesDoNotKillServer(t *testing.T) {
	srv, _ := faultServer(t)

	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// Length prefixes promising 100 bytes of "JSON", then junk.
	raw.Write(wire.FrameLengths(100, 0))
	junk := make([]byte, 100)
	for i := range junk {
		junk[i] = 0xA5
	}
	raw.Write(junk)
	raw.Close()

	// A well-behaved peer still gets service.
	peer, err := wire.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	go peer.Run()
	var out map[string]string
	if err := peer.Call("echo", map[string]string{"k": "v"}, &out); err != nil {
		t.Fatalf("healthy peer broken by garbage neighbour: %v", err)
	}
	if out["k"] != "v" {
		t.Fatalf("echo = %v", out)
	}
}

// TestTornFrameDisconnect half-writes a frame and disconnects; the server
// must shrug it off.
func TestTornFrameDisconnect(t *testing.T) {
	srv, _ := faultServer(t)
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	torn := wire.RawFrame(wire.KindRequest, 1, "echo", "", "", `{"n":1}`, nil)
	raw.Write(torn[:17]) // promise the whole envelope, deliver part of it, then vanish
	raw.Close()

	peer, err := wire.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	go peer.Run()
	if err := peer.Call("echo", map[string]int{"n": 1}, nil); err != nil {
		t.Fatalf("server did not survive torn frame: %v", err)
	}
}

// closeErr writes stream at a fresh server over a raw connection and returns
// the error the server's peer shut down with.
func closeErr(t *testing.T, stream []byte) error {
	t.Helper()
	srv, accepted := faultServer(t)
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var p *wire.Peer
	select {
	case p = <-accepted:
	case <-time.After(2 * time.Second):
		t.Fatal("no accept")
	}
	closed := make(chan error, 1)
	p.OnClose(func(err error) { closed <- err })
	go p.Run()

	raw.Write(stream)
	select {
	case err := <-closed:
		return err
	case <-time.After(2 * time.Second):
		t.Fatalf("the server kept a connection that sent %x", stream)
		return nil
	}
}

// TestOversizePrefixRejectedImmediately claims a frame beyond
// MaxFrameBytes — in its envelope, in its raw section, and in the two
// together: the connection must be cut without allocating the claimed
// buffer.
func TestOversizePrefixRejectedImmediately(t *testing.T) {
	for name, hdr := range map[string][]byte{
		"envelope": wire.FrameLengths(wire.MaxFrameBytes+1, 0),
		"blob":     wire.FrameLengths(2, wire.MaxFrameBytes-1),
		"sum":      wire.FrameLengths(wire.MaxFrameBytes/2+1, wire.MaxFrameBytes/2),
		"overflow": wire.FrameLengths(1<<32-1, 1<<32-1),
	} {
		t.Run(name, func(t *testing.T) {
			if err := closeErr(t, hdr); !errors.Is(err, wire.ErrFrameTooBig) {
				t.Fatalf("connection closed with %v, want ErrFrameTooBig", err)
			}
		})
	}
}

// TestBadEnvelopeCutsTheConnection sends envelopes the two ends cannot agree
// on: each shuts the receiving peer down with ErrBadFrame.
func TestBadEnvelopeCutsTheConnection(t *testing.T) {
	envelope := func(env ...byte) []byte { return append(wire.FrameLengths(uint32(len(env)), 0), env...) }
	for name, stream := range map[string][]byte{
		"unknown kind":           wire.RawFrame(0, 1, "echo", "", "", `{}`, nil),
		"string past envelope":   envelope(wire.KindRequest, 1, 5, 'e', 'c', 'h', 'o'),
		"empty envelope":         envelope(),
		"id cut short":           envelope(wire.KindRequest, 0x81),
		"id not in its shortest": envelope(wire.KindRequest, 0x81, 0x00, 0, 0, 0),
	} {
		t.Run(name, func(t *testing.T) {
			if err := closeErr(t, stream); !errors.Is(err, wire.ErrBadFrame) {
				t.Fatalf("connection closed with %v, want ErrBadFrame", err)
			}
		})
	}
}

// TestUnknownKindPoisonsConnection sends a frame whose kind byte is
// gibberish. The protocol is intentionally strict — an unknown
// kind means the two ends have desynchronised, so the peer must cut the
// connection rather than guess — while the listener keeps serving others.
func TestUnknownKindPoisonsConnection(t *testing.T) {
	srv, accepted := faultServer(t)
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var p *wire.Peer
	select {
	case p = <-accepted:
	case <-time.After(2 * time.Second):
		t.Fatal("no accept")
	}
	closed := make(chan struct{})
	p.OnClose(func(error) { close(closed) })
	go p.Run()

	raw.Write(wire.RawFrame(0x7b, 1, "echo", "", "", `{"n":1}`, nil))

	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("unknown kind tolerated — protocol must fail fast")
	}

	// Fresh peers are unaffected.
	peer, err := wire.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	go peer.Run()
	if err := peer.Call("echo", map[string]int{"n": 1}, nil); err != nil {
		t.Fatalf("listener poisoned: %v", err)
	}
}
