package netem

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gnf/internal/packet"
)

// TestDetachFlushesPinnedEntries is the regression test for detached cell
// ports leaving sticky FDB entries behind: pinned MACs are never
// re-learned, so a survivor would blackhole (or mis-deliver) the client's
// traffic forever.
func TestDetachFlushesPinnedEntries(t *testing.T) {
	tn := newTestNet(t, 3)
	tn.sw.PinMAC(mac(1), 1)
	if port, ok := tn.sw.LookupFDB(mac(1)); !ok || port != 1 {
		t.Fatalf("pinned lookup = %v, %v", port, ok)
	}

	// The client's cell port goes away (e.g. the cell endpoint is torn
	// down during a handoff).
	tn.sw.Detach(1)
	if _, ok := tn.sw.LookupFDB(mac(1)); ok {
		t.Fatal("pinned FDB entry survived Detach")
	}

	// The client reassociates on port 3: traffic to it must unicast
	// there, not chase the dead pin.
	tn.sw.PinMAC(mac(1), 3)
	tn.eps[1].Send(udpFrame(2, 1, 100, 200))
	expectFrame(t, tn.taps[2])
	if port, ok := tn.sw.LookupFDB(mac(1)); !ok || port != 3 {
		t.Fatalf("reassociated lookup = %v, %v", port, ok)
	}
}

// TestFlowCacheInvalidationOnRuleChange verifies generation-stamped
// verdicts die with the table mutation that outdates them: a cached
// redirect must stop matching on the very next frame after RemoveRule,
// and a newly added drop rule must take effect despite a cached normal
// verdict.
func TestFlowCacheInvalidationOnRuleChange(t *testing.T) {
	tn := newTestNet(t, 3)
	// Teach the FDB where host 2 lives so normal forwarding unicasts.
	tn.eps[1].Send(udpFrame(2, 9, 1, 1))
	time.Sleep(20 * time.Millisecond)
	drainTaps(tn)

	proto := uint8(packet.ProtoUDP)
	id := tn.sw.AddRule(Rule{Priority: 10, Match: Match{Proto: &proto}, Action: ActionRedirect, OutPort: 3})

	// Three identical frames: first sight, admitted and filled, cache hit
	// (each waited for, so none rides another's run); all redirected.
	for sight := 0; sight < 3; sight++ {
		tn.eps[0].Send(udpFrame(1, 2, 5, 6))
		expectFrame(t, tn.taps[2])
	}
	expectSilence(t, tn.taps[1], 50*time.Millisecond)
	if st := tn.sw.Stats(); st.CacheHits == 0 {
		t.Fatalf("repeated flow did not hit the cache: %+v", st)
	}

	// Remove the redirect: the same flow must revert to normal
	// forwarding on the next frame, not keep hitting the stale verdict.
	if !tn.sw.RemoveRule(id) {
		t.Fatal("RemoveRule failed")
	}
	tn.eps[0].Send(udpFrame(1, 2, 5, 6))
	expectFrame(t, tn.taps[1])
	expectSilence(t, tn.taps[2], 50*time.Millisecond)

	// And a new drop rule must beat the now-cached normal verdict.
	tn.sw.AddRule(Rule{Priority: 10, Match: Match{Proto: &proto}, Action: ActionDrop})
	tn.eps[0].Send(udpFrame(1, 2, 5, 6))
	expectSilence(t, tn.taps[1], 50*time.Millisecond)
	expectSilence(t, tn.taps[2], 50*time.Millisecond)
}

func drainTaps(tn *testNet) {
	for _, tap := range tn.taps {
		for {
			select {
			case <-tap:
				continue
			default:
			}
			break
		}
	}
}

// TestRuleChurnRacingForwarding runs steady traffic through the switch
// while the control plane churns rules, ports, and pins — the scenario
// the copy-on-write snapshot exists for. Run under -race; the assertion
// at the end also checks the table converged to correct behavior.
func TestRuleChurnRacingForwarding(t *testing.T) {
	tn := newTestNet(t, 4)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Forwarding load on three ports.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				tn.eps[i].Send(udpFrame(byte(i+1), byte((i+1)%3+1), uint16(j%8+1), 53))
			}
		}(i)
	}
	// Rule churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		proto := uint8(packet.ProtoUDP)
		for j := 0; ; j++ {
			select {
			case <-stop:
				return
			default:
			}
			sport := uint16(j%8 + 1)
			id := tn.sw.AddRule(Rule{Priority: 5, Match: Match{Proto: &proto, SrcPort: &sport}, Action: ActionDrop})
			tn.sw.RemoveRule(id)
		}
	}()
	// Pin/unpin and port churn on a spare port id.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; ; j++ {
			select {
			case <-stop:
				return
			default:
			}
			tn.sw.PinMAC(mac(200), PortID(j%3+1))
			tn.sw.UnpinMAC(mac(200))
			host, swSide := NewVethPair("churn-h", "churn-sw")
			tn.sw.Attach(99, swSide)
			tn.sw.Detach(99)
			host.Close()
		}
	}()

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	drainTaps(tn)

	// Post-churn sanity: empty table, forwarding still correct.
	if n := len(tn.sw.Rules()); n != 0 {
		t.Fatalf("rules leaked: %d", n)
	}
	tn.eps[0].Send(udpFrame(1, 2, 77, 88))
	expectFrame(t, tn.taps[1])
}

// TestFlowCacheBounded admits more distinct flows than the cache can hold —
// each is sent twice in a row, so its second frame is probed for and filled
// — and checks occupancy climbs to the cap region and never past the cap.
func TestFlowCacheBounded(t *testing.T) {
	sw, frame := newSteerSwitch(2)
	const flows = flowCacheMaxSize + 4096
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < flows; i++ {
			sw.Inject(1, flowFrame(frame, i))
			sw.Inject(1, frame)
			if i%1024 == 0 {
				if got := sw.Stats().FlowEntries; got > flowCacheMaxSize {
					t.Fatalf("flow cache grew past its bound: %d > %d", got, flowCacheMaxSize)
				}
			}
		}
	}
	if got := sw.Stats().FlowEntries; got < flowCacheMaxSize*3/4 || got > flowCacheMaxSize {
		t.Fatalf("flow cache holds %d entries after %d admitted flows, want %d..%d",
			got, flows, flowCacheMaxSize*3/4, flowCacheMaxSize)
	}
}

// TestParallelForwardingDelivers pushes frames from four ports
// concurrently through steering rules and checks nothing is misrouted —
// the lock-free pipeline must behave like the locked one.
func TestParallelForwardingDelivers(t *testing.T) {
	tn := newTestNet(t, 4)
	proto := uint8(packet.ProtoUDP)
	inPort := PortID(1)
	// Steer host 1's UDP into port 4; everything else forwards normally.
	tn.sw.AddRule(Rule{Priority: 10, Match: Match{InPort: &inPort, Proto: &proto}, Action: ActionRedirect, OutPort: 4})

	var redirected, normal atomic.Uint64
	tn.eps[3].SetReceiver(func([]byte) { redirected.Add(1) })
	tn.eps[1].SetReceiver(func([]byte) { normal.Add(1) })
	// Teach the FDB host 2's port so host 3's frames unicast.
	tn.eps[1].Send(udpFrame(2, 9, 1, 1))
	time.Sleep(20 * time.Millisecond)

	const per = 200
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // steered traffic
		defer wg.Done()
		for j := 0; j < per; j++ {
			for tn.eps[0].Send(udpFrame(1, 2, uint16(j%16+1), 53)) != nil {
			}
			if j%64 == 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}()
	go func() { // normal unicast traffic
		defer wg.Done()
		for j := 0; j < per; j++ {
			for tn.eps[2].Send(udpFrame(3, 2, uint16(j%16+1), 80)) != nil {
			}
			if j%64 == 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}()
	wg.Wait()
	deadline := time.After(10 * time.Second)
	for redirected.Load() < per || normal.Load() < per {
		select {
		case <-deadline:
			t.Fatalf("redirected=%d normal=%d, want >= %d each", redirected.Load(), normal.Load(), per)
		case <-time.After(2 * time.Millisecond):
		}
	}
}
