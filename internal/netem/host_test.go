package netem

import (
	"context"
	"testing"
	"time"

	"gnf/internal/packet"
)

// twoHosts builds hostA <-> switch <-> hostB.
func twoHosts(t *testing.T) (*Host, *Host, *Switch) {
	t.Helper()
	sw := NewSwitch("sw")
	a1, a2 := NewVethPair("ha", "sw-a")
	b1, b2 := NewVethPair("hb", "sw-b")
	sw.Attach(1, a2)
	sw.Attach(2, b2)
	ha := NewHost(mac(1), ip(1), a1)
	hb := NewHost(mac(2), ip(2), b1)
	t.Cleanup(func() { a1.Close(); b1.Close() })
	return ha, hb, sw
}

func TestHostARPResolution(t *testing.T) {
	ha, hb, _ := twoHosts(t)
	if ha.Resolve(ip(2)) != packet.BroadcastMAC {
		t.Fatal("unknown IP should resolve to broadcast")
	}
	if err := ha.SendARPRequest(ip(2)); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	for ha.Resolve(ip(2)) != hb.MACAddr {
		select {
		case <-deadline:
			t.Fatal("ARP reply never learned")
		case <-time.After(5 * time.Millisecond):
		}
	}
	// The replying host learned the requester too.
	if hb.Resolve(ip(1)) != ha.MACAddr {
		t.Fatal("responder did not learn requester")
	}
}

func TestHostPing(t *testing.T) {
	ha, _, _ := twoHosts(t)
	done, err := ha.Ping(ip(2), 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("ping reply never arrived")
	}
}

func TestHostUDPEcho(t *testing.T) {
	ha, hb, _ := twoHosts(t)
	hb.HandleUDP(7, func(src, dst packet.Endpoint, payload []byte) []byte {
		return append([]byte("echo:"), payload...)
	})
	got := make(chan []byte, 1)
	ha.HandleUDP(5555, func(src, dst packet.Endpoint, payload []byte) []byte {
		got <- payload
		return nil
	})
	if err := ha.SendUDP(packet.Endpoint{Addr: ip(2), Port: 7}, 5555, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if string(p) != "echo:hi" {
			t.Fatalf("reply = %q", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no echo reply")
	}
}

func TestHostCatchAllUDP(t *testing.T) {
	ha, hb, _ := twoHosts(t)
	got := make(chan uint16, 1)
	hb.HandleAnyUDP(func(src, dst packet.Endpoint, payload []byte) []byte {
		got <- dst.Port
		return nil
	})
	ha.SendUDP(packet.Endpoint{Addr: ip(2), Port: 4321}, 1, []byte("x"))
	select {
	case port := <-got:
		if port != 4321 {
			t.Fatalf("port = %d", port)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("catch-all never fired")
	}
}

func TestHostIgnoresForeignUnicast(t *testing.T) {
	ha, hb, _ := twoHosts(t)
	seen := make(chan struct{}, 1)
	hb.HandleAnyUDP(func(src, dst packet.Endpoint, payload []byte) []byte {
		seen <- struct{}{}
		return nil
	})
	// Frame addressed to hb's IP but a different MAC: must be ignored at L2.
	frame := packet.BuildUDP(ha.MACAddr, mac(9), ip(1), ip(2), 1, 2, []byte("x"))
	ha.Endpoint().Send(frame)
	select {
	case <-seen:
		t.Fatal("host accepted frame for foreign MAC")
	case <-time.After(100 * time.Millisecond):
	}
}

func TestHostTap(t *testing.T) {
	ha, hb, _ := twoHosts(t)
	frames := make(chan []byte, 8)
	hb.Tap(func(f []byte) { frames <- f })
	ha.SendUDP(packet.Endpoint{Addr: ip(2), Port: 1}, 2, []byte("tapped"))
	select {
	case <-frames:
	case <-time.After(2 * time.Second):
		t.Fatal("tap saw nothing")
	}
	hb.Tap(nil) // removable
}

// TestPingCtxCleansUpUnansweredEchoes is the regression test for the
// pingWaits leak: every echo lost on the wire used to leave a wait-table
// entry behind forever.
func TestPingCtxCleansUpUnansweredEchoes(t *testing.T) {
	ha, _, _ := twoHosts(t)
	const lost = 32
	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < lost; i++ {
		// 10.0.0.99 has no host behind it: these echoes never come back.
		if _, err := ha.PingCtx(ctx, ip(99), 9, uint16(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := ha.PendingPings(); n != lost {
		t.Fatalf("pending pings = %d, want %d", n, lost)
	}
	cancel()
	deadline := time.After(2 * time.Second)
	for ha.PendingPings() != 0 {
		select {
		case <-deadline:
			t.Fatalf("pending pings = %d after cancel, want 0", ha.PendingPings())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// TestPingCtxTimeoutThenLateReplyIgnored: after the context deadline
// reclaims the wait, a late reply must not close anything or re-grow the
// table.
func TestPingCtxTimeoutThenLateReplyIgnored(t *testing.T) {
	ha, hb, _ := twoHosts(t)
	_ = hb // hb answers echoes addressed to it
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	ch, err := ha.PingCtx(ctx, ip(2), 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	for ha.PendingPings() != 0 {
		select {
		case <-deadline:
			t.Fatal("expired ping wait never reclaimed")
		case <-time.After(2 * time.Millisecond):
		}
	}
	// The reply may still arrive; it must be ignored, and the original
	// channel may or may not have been closed before the deadline hit —
	// but the table must stay empty.
	time.Sleep(50 * time.Millisecond)
	if n := ha.PendingPings(); n != 0 {
		t.Fatalf("pending pings = %d after late reply, want 0", n)
	}
	select {
	case <-ch:
		// Closed before the deadline won the race: acceptable.
	default:
	}
}

// TestPingSendErrorDoesNotLeak: a send failure must remove the wait entry
// it just created.
func TestPingSendErrorDoesNotLeak(t *testing.T) {
	ha, _, _ := twoHosts(t)
	ha.Endpoint().Close()
	if _, err := ha.Ping(ip(2), 12, 1); err == nil {
		t.Fatal("ping on closed endpoint succeeded")
	}
	if n := ha.PendingPings(); n != 0 {
		t.Fatalf("pending pings = %d after send error, want 0", n)
	}
}

// TestHostBatchLearnsAPeerWhoseMACChangesMidBatch: every datagram and every
// ARP of a batch goes to the ARP table (a steady sender costs a read lock),
// so the table ends on the last address seen, whatever frames came between.
func TestHostBatchLearnsAPeerWhoseMACChangesMidBatch(t *testing.T) {
	ep, _ := NewVethPair("h", "sw")
	t.Cleanup(ep.Close)
	h := NewHost(mac(1), ip(1), ep)
	var handled int
	h.HandleAnyUDP(func(_, _ packet.Endpoint, _ []byte) []byte { handled++; return nil })
	from := func(m packet.MAC) []byte {
		return packet.BuildUDP(m, mac(1), ip(2), ip(1), 7, 7, []byte("x"))
	}

	h.receive([][]byte{from(mac(2)), from(mac(2)), from(mac(3))})
	if got := h.Resolve(ip(2)); got != mac(3) {
		t.Fatalf("after 2,2,3: %v", got)
	}
	h.receive([][]byte{from(mac(3)), from(mac(2)), from(mac(3)), from(mac(2))})
	if got := h.Resolve(ip(2)); got != mac(2) {
		t.Fatalf("after 3,2,3,2: %v", got)
	}
	// An ARP from the same peer between two datagrams: last writer wins.
	arp := packet.BuildARP(packet.ARPReply, mac(3), ip(2), mac(1), ip(1))
	h.receive([][]byte{from(mac(2)), arp, from(mac(2))})
	if got := h.Resolve(ip(2)); got != mac(2) {
		t.Fatalf("after 2,arp(3),2: %v", got)
	}
	if handled != 9 {
		t.Fatalf("handled %d of 9 datagrams", handled)
	}
}

// TestHostLearnMemoFollowsAConcurrentLearn: receive learns a (IP, MAC) pair
// once per batch, for as long as the ARP table's generation stands still.
// A handler re-points the peer while datagram k is handled — any writer
// between two datagrams does — so datagram k+1, from the same pair as every
// datagram before it, must learn it again.
func TestHostLearnMemoFollowsAConcurrentLearn(t *testing.T) {
	const n, k = 8, 3
	ep, _ := NewVethPair("h", "sw")
	t.Cleanup(ep.Close)
	h := NewHost(mac(1), ip(1), ep)
	var handled int
	h.HandleAnyUDP(func(_, _ packet.Endpoint, payload []byte) []byte {
		if handled++; payload[0] == k {
			h.Learn(ip(2), mac(3))
		}
		return nil
	})
	batch := make([][]byte, n)
	for i := range batch {
		batch[i] = packet.BuildUDP(mac(2), mac(1), ip(2), ip(1), 7, 7, []byte{byte(i)})
	}
	h.receive(batch)
	if handled != n {
		t.Fatalf("handled %d of %d datagrams", handled, n)
	}
	if got := h.Resolve(ip(2)); got != mac(2) {
		t.Fatalf("after a Learn during datagram %d of %d from %v: %v", k, n, mac(2), got)
	}
}

// TestHostIgnoresAFirstFragment: the parser reads a UDP datagram's first
// fragment as the datagram's flow, but the host does not reassemble, so no
// handler sees a part of a datagram as if it were the whole.
func TestHostIgnoresAFirstFragment(t *testing.T) {
	ep, _ := NewVethPair("h", "sw")
	t.Cleanup(ep.Close)
	h := NewHost(mac(1), ip(1), ep)
	var handled int
	h.HandleAnyUDP(func(_, _ packet.Endpoint, _ []byte) []byte { handled++; return nil })
	whole := packet.BuildUDP(mac(2), mac(1), ip(2), ip(1), 7, 7, make([]byte, 64))
	first := whole[:packet.EthernetHeaderLen+packet.IPv4HeaderLen+40]
	ipb := first[packet.EthernetHeaderLen:]
	ipb[2], ipb[3] = 0, byte(len(ipb))
	ipb[6], ipb[10], ipb[11] = 0x20, 0, 0 // MF, offset 0
	ck := packet.Checksum(ipb[:packet.IPv4HeaderLen])
	ipb[10], ipb[11] = byte(ck>>8), byte(ck)

	h.receive([][]byte{packet.Clone(first), packet.BuildUDP(mac(2), mac(1), ip(2), ip(1), 7, 7, []byte("x"))})
	if handled != 1 {
		t.Fatalf("handled %d datagrams, want the whole one only", handled)
	}
}
