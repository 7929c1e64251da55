package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type echoReq struct {
	Text string `json:"text"`
}

type echoRes struct {
	Text string `json:"text"`
}

// startEcho runs a server answering "echo" and counting "ping" notifies.
func startEcho(t *testing.T) (*Server, *atomic.Int64) {
	t.Helper()
	var pings atomic.Int64
	srv, err := NewServer("127.0.0.1:0", func(p *Peer) {
		p.Handle("echo", func(body json.RawMessage) (any, error) {
			var req echoReq
			if err := json.Unmarshal(body, &req); err != nil {
				return nil, err
			}
			return echoRes{Text: req.Text}, nil
		})
		p.Handle("fail", func(json.RawMessage) (any, error) {
			return nil, errors.New("deliberate failure")
		})
		p.HandleNotify("ping", func(json.RawMessage) { pings.Add(1) })
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, &pings
}

func dial(t *testing.T, addr string) *Peer {
	t.Helper()
	p, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	go p.Run()
	t.Cleanup(func() { p.Close() })
	return p
}

func TestCallRoundTrip(t *testing.T) {
	srv, _ := startEcho(t)
	p := dial(t, srv.Addr())
	var res echoRes
	if err := p.Call("echo", echoReq{Text: "hello"}, &res); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if res.Text != "hello" {
		t.Fatalf("res = %+v", res)
	}
}

func TestCallErrorPropagates(t *testing.T) {
	srv, _ := startEcho(t)
	p := dial(t, srv.Addr())
	err := p.Call("fail", echoReq{}, nil)
	if err == nil || !strings.Contains(err.Error(), "deliberate failure") {
		t.Fatalf("err = %v", err)
	}
}

func TestCallUnknownMethod(t *testing.T) {
	srv, _ := startEcho(t)
	p := dial(t, srv.Addr())
	err := p.Call("nonsense", echoReq{}, nil)
	if err == nil || !strings.Contains(err.Error(), "no handler") {
		t.Fatalf("err = %v", err)
	}
}

func TestNotifyDelivered(t *testing.T) {
	srv, pings := startEcho(t)
	p := dial(t, srv.Addr())
	for i := 0; i < 3; i++ {
		if err := p.Notify("ping", nil); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(2 * time.Second)
	for pings.Load() != 3 {
		select {
		case <-deadline:
			t.Fatalf("pings = %d", pings.Load())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func TestBidirectionalCalls(t *testing.T) {
	// Server calls the client back during a request.
	srv, err := NewServer("127.0.0.1:0", func(p *Peer) {
		p.Handle("chain", func(json.RawMessage) (any, error) {
			var res echoRes
			if err := p.Call("client.echo", echoReq{Text: "from-server"}, &res); err != nil {
				return nil, err
			}
			return echoRes{Text: res.Text + "-chained"}, nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	p, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	p.Handle("client.echo", func(body json.RawMessage) (any, error) {
		var req echoReq
		json.Unmarshal(body, &req)
		return echoRes{Text: req.Text}, nil
	})
	go p.Run()
	defer p.Close()

	var res echoRes
	if err := p.Call("chain", echoReq{}, &res); err != nil {
		t.Fatalf("chain: %v", err)
	}
	if res.Text != "from-server-chained" {
		t.Fatalf("res = %+v", res)
	}
}

func TestConcurrentCalls(t *testing.T) {
	srv, _ := startEcho(t)
	p := dial(t, srv.Addr())
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var res echoRes
			msg := fmt.Sprintf("m%d", i)
			if err := p.Call("echo", echoReq{Text: msg}, &res); err != nil {
				errs <- err
				return
			}
			if res.Text != msg {
				errs <- fmt.Errorf("mismatched response: %q != %q", res.Text, msg)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestCallTimeout(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", func(p *Peer) {
		p.Handle("slow", func(json.RawMessage) (any, error) {
			time.Sleep(500 * time.Millisecond)
			return nil, nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := dial(t, srv.Addr())
	p.SetCallTimeout(50 * time.Millisecond)
	if err := p.Call("slow", nil, nil); !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("err = %v", err)
	}
}

func TestPeerCloseFailsPendingCalls(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", func(p *Peer) {
		p.Handle("hang", func(json.RawMessage) (any, error) {
			time.Sleep(5 * time.Second)
			return nil, nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := dial(t, srv.Addr())
	done := make(chan error, 1)
	go func() { done <- p.Call("hang", nil, nil) }()
	time.Sleep(50 * time.Millisecond)
	p.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("pending call err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending call never failed after Close")
	}
	// Calls after close fail immediately.
	if err := p.Call("echo", nil, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close call: %v", err)
	}
}

func TestOnCloseFires(t *testing.T) {
	srv, _ := startEcho(t)
	p := dial(t, srv.Addr())
	fired := make(chan error, 2)
	p.OnClose(func(err error) { fired <- err })
	p.Close()
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("OnClose never fired")
	}
	// Registering after close fires immediately.
	p.OnClose(func(err error) { fired <- err })
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("late OnClose never fired")
	}
}

func TestServerCloseDisconnectsPeers(t *testing.T) {
	srv, _ := startEcho(t)
	p := dial(t, srv.Addr())
	closed := make(chan struct{})
	p.OnClose(func(error) { close(closed) })
	srv.Close()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("client peer not closed when server shut down")
	}
}

func TestRemoteAddrNonEmpty(t *testing.T) {
	srv, _ := startEcho(t)
	p := dial(t, srv.Addr())
	if p.RemoteAddr() == "" {
		t.Fatal("empty remote addr")
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	srv, _ := startEcho(t)
	p := dial(t, srv.Addr())
	big := strings.Repeat("x", MaxFrameBytes)
	err := p.Call("echo", echoReq{Text: big}, nil)
	if !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("err = %v", err)
	}
}

// TestTraceMetadataRoundTrip pins the trace envelope field: metadata sent
// with CallTraced arrives verbatim at a HandleTraced handler, an untraced
// Call arrives with "", and plain Handle handlers never see it at all —
// the interop contract that lets traced and legacy peers mix.
func TestTraceMetadataRoundTrip(t *testing.T) {
	var seen []string
	var mu sync.Mutex
	srv, err := NewServer("127.0.0.1:0", func(p *Peer) {
		p.HandleTraced("traced", func(trace string, body json.RawMessage) (any, error) {
			mu.Lock()
			seen = append(seen, trace)
			mu.Unlock()
			return echoRes{Text: trace}, nil
		})
		p.Handle("legacy", func(body json.RawMessage) (any, error) {
			return echoRes{Text: "ok"}, nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	p := dial(t, srv.Addr())

	var res echoRes
	if err := p.CallTraced("traced", "abc123-def456-1", echoReq{}, &res); err != nil {
		t.Fatal(err)
	}
	if res.Text != "abc123-def456-1" {
		t.Fatalf("traced handler saw %q", res.Text)
	}
	if err := p.Call("traced", echoReq{}, &res); err != nil {
		t.Fatal(err)
	}
	if res.Text != "" {
		t.Fatalf("untraced call leaked metadata %q", res.Text)
	}
	// Trace metadata on a method registered via plain Handle must not
	// break the call.
	if err := p.CallTraced("legacy", "some-trace-1", echoReq{}, &res); err != nil || res.Text != "ok" {
		t.Fatalf("legacy handler under traced call: res=%+v err=%v", res, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2 || seen[0] != "abc123-def456-1" || seen[1] != "" {
		t.Fatalf("seen = %v", seen)
	}
}

// TestBadBodyFailsOnlyItsCall sends a request whose body is not JSON. Only
// the handler decodes a body, so that call fails with the handler's decode
// error, and the connection carries the next call as before.
func TestBadBodyFailsOnlyItsCall(t *testing.T) {
	srv, _ := startEcho(t)
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	const bad = `{"text":"unterminated`
	raw.Write(RawFrame(kindRequest, 1, "echo", "", "", bad, nil))
	raw.Write(RawFrame(kindRequest, 2, "echo", "", "", `{"text":"next"}`, nil))
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	want := json.Unmarshal([]byte(bad), &echoReq{}).Error()
	r := bufio.NewReader(raw)
	got := map[uint64]*frame{}
	for len(got) < 2 {
		res, err := readFrame(r)
		if err != nil {
			t.Fatalf("after %d responses: %v", len(got), err)
		}
		got[res.ID] = res
	}
	if res := got[1]; res == nil || res.Error != want {
		t.Fatalf("the bad body's call: %+v, want error %q", res, want)
	}
	if res := got[2]; res == nil || res.Error != "" || string(res.Body) != `{"text":"next"}` {
		t.Fatalf("the call behind it: %+v", res)
	}
}

// TestFrameAllocs pins what a traced request frame costs to render and to
// read: the head is one buffer, and the read is the frame, its envelope and
// one string holding the method and the trace — the body is the envelope's
// tail, not a copy.
func TestFrameAllocs(t *testing.T) {
	f := &frame{Kind: kindRequest, ID: 4711, Method: "agent.checkpoint",
		Trace: "0a1b000000000001-0a1b000000000002-1", Body: json.RawMessage(`{"chain":"c","restart":true}`)}
	if n := testing.AllocsPerRun(200, func() { renderHead(f) }); n != 1 {
		t.Errorf("renderHead: %v allocs, want 1", n)
	}
	head, _ := renderHead(f)
	src := bytes.NewReader(head)
	r := bufio.NewReader(src)
	if n := testing.AllocsPerRun(200, func() {
		src.Reset(head)
		r.Reset(src)
		if _, err := readFrame(r); err != nil {
			t.Fatal(err)
		}
	}); n != 3 {
		t.Errorf("readFrame: %v allocs, want 3", n)
	}
}
