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
	raw.Write(wire.FrameLengths(64, 0))    // promise 64 bytes...
	raw.Write([]byte(`{"kind":"req","me`)) // ...deliver 17, then vanish
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

			raw.Write(hdr)
			select {
			case err := <-closed:
				if !errors.Is(err, wire.ErrFrameTooBig) {
					t.Fatalf("connection closed with %v, want ErrFrameTooBig", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("oversize prefix not rejected")
			}
		})
	}
}

// TestUnknownKindPoisonsConnection sends a well-formed JSON frame whose
// kind is gibberish. The protocol is intentionally strict — an unknown
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

	body, _ := json.Marshal(map[string]any{"kind": "??", "id": 1})
	raw.Write(wire.FrameLengths(uint32(len(body)), 0))
	raw.Write(body)

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
