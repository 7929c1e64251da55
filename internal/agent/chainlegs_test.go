package agent_test

import (
	"encoding/binary"
	"runtime"
	"sync"
	"testing"
	"time"

	"gnf/internal/agent"
	"gnf/internal/container"
	"gnf/internal/netem"
	"gnf/internal/nf"
	"gnf/internal/packet"
	"gnf/internal/traffic"
)

// A chain's two links to its station's switch are service pairs — a queue
// toward the chain, a direct call back. The tests here hold the station-level
// consequences: two goroutines per chain, a reverse-emitting NF calling into
// the switch, replay order across Enable, where an overdriven chain's loss
// shows up, and that it is the overdriven chain's loss alone.

// settledGoroutines reads runtime.NumGoroutine once it has stopped falling:
// a deploy's boot goroutines and a closed veth's delivery loops take a
// moment to exit.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(2 * time.Millisecond)
		if m := runtime.NumGoroutine(); m < n {
			n, i = m, 0
		}
	}
	return n
}

func TestExclusiveChainRunsOnOneGoroutinePerLeg(t *testing.T) {
	st := newStation(t)
	base := settledGoroutines()
	if _, err := st.ag.Deploy(exclusiveSpec("ch", 3, 1)); err != nil {
		t.Fatal(err)
	}
	if got := settledGoroutines(); got != base+2 {
		t.Fatalf("a deployed chain holds %d goroutines, want 2 (one per leg)", got-base)
	}

	got := make(chan struct{}, 1)
	st.server.HandleAnyUDP(func(_, _ packet.Endpoint, _ []byte) []byte { got <- struct{}{}; return nil })
	st.client.SendUDP(packet.Endpoint{Addr: serverIP, Port: 53}, 1234, []byte("hello"))
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("no traffic through the chain")
	}

	if err := st.ag.Remove("ch"); err != nil {
		t.Fatal(err)
	}
	if got := settledGoroutines(); got != base {
		t.Fatalf("Remove left %d goroutines behind", got-base)
	}
}

// TestCachedReplyReentersTheSwitchFromTheChainIngress: an NF that answers a
// query itself emits the reply on the chain's ingress leg, the one the query
// came in on. That leg's way back is a direct call: the chain's goroutine
// runs the switch pass that puts the reply on the client's veth.
func TestCachedReplyReentersTheSwitchFromTheChainIngress(t *testing.T) {
	st := newStation(t)
	base := packet.FramePoolOutstanding()
	spec := agent.DeploySpec{Chain: "cache", Client: "phone", Enabled: true,
		Functions: []agent.NFSpec{{Kind: "dnscache", Name: "dc0"}}}
	if _, err := st.ag.Deploy(spec); err != nil {
		t.Fatal(err)
	}
	traffic.DNSServer(st.server, map[string]packet.IP{"cdn.example": {1, 2, 3, 4}})
	resolver := packet.Endpoint{Addr: serverIP, Port: 53}

	for id := uint16(1); id <= 2; id++ {
		res := traffic.DNSQuery(st.client, resolver, 30000+id, id, "cdn.example", 2*time.Second)
		if res == nil || len(res.Answers) == 0 || res.Answers[0].A != (packet.IP{1, 2, 3, 4}) {
			t.Fatalf("query %d: %+v", id, res)
		}
	}
	ch, err := st.ag.ChainFunction("cache")
	if err != nil {
		t.Fatal(err)
	}
	if stats := ch.NFStats(); stats["dc0.hits"] != 1 || stats["dc0.misses"] != 1 {
		t.Fatalf("the second query was not answered at the edge: %v", stats)
	}
	waitCount(t, 2*time.Second, func() bool { return packet.FramePoolOutstanding() == base })
}

// seqSink records the sequence numbers a server receives, in order.
type seqSink struct {
	mu  sync.Mutex
	got []uint32
}

func (s *seqSink) handle(_, _ packet.Endpoint, payload []byte) []byte {
	s.mu.Lock()
	s.got = append(s.got, binary.BigEndian.Uint32(payload))
	s.mu.Unlock()
	return nil
}

func (s *seqSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.got)
}

func (st *station) sendSeq(seq uint32) {
	var payload [4]byte
	binary.BigEndian.PutUint32(payload[:], seq)
	st.client.SendUDP(packet.Endpoint{Addr: serverIP, Port: 7}, 1234, payload[:])
}

// TestBrownoutReplayReachesTheUplinkBeforeLaterTraffic: frames parked while a
// migration target was disabled are replayed by Enable on the activating
// goroutine, while the chain's ingress leg keeps delivering new ones on its
// own. With no ring between the chain and the switch pass after it, what
// keeps the parked frames ahead is the host's gate alone: everything parked
// must reach the uplink before anything that arrived after activation, and
// nothing may be lost.
func TestBrownoutReplayReachesTheUplinkBeforeLaterTraffic(t *testing.T) {
	st := newStation(t)
	spec := exclusiveSpec("ch", 2, 0)
	spec.Enabled = false // a migration deploy: the brownout buffer is armed
	if _, err := st.ag.Deploy(spec); err != nil {
		t.Fatal(err)
	}
	st.server.Learn(packet.IP{192, 168, 50, 1}, clientMAC)
	sink := &seqSink{}
	st.server.HandleAnyUDP(sink.handle)

	// Every queue on the way holds 512: no burst of these can overflow one.
	const parked, total = 200, 500
	for seq := uint32(0); seq < parked; seq++ {
		st.sendSeq(seq)
	}
	// The switch counts a batch's redirects once the chain has taken it.
	waitCount(t, 2*time.Second, func() bool { return st.ag.Switch().Stats().Redirects == parked })

	enabled := make(chan error, 1)
	go func() { enabled <- st.ag.Enable("ch") }()
	for seq := uint32(parked); seq < total; seq++ {
		st.sendSeq(seq)
		if seq%64 == 0 {
			time.Sleep(100 * time.Microsecond) // let the activation interleave
		}
	}
	if err := <-enabled; err != nil {
		t.Fatal(err)
	}
	waitCount(t, 5*time.Second, func() bool { return sink.count() == total })
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for i, seq := range sink.got {
		if seq != uint32(i) {
			t.Fatalf("position %d holds frame %d: a later frame overtook the replay", i, seq)
		}
	}
}

// slowpoke is a counter that takes its time over every frame.
type slowpoke struct{ nf.Function }

func (s slowpoke) Process(dir nf.Direction, frame []byte) nf.Output {
	return nf.ProcessOne(s, dir, frame)
}

func (s slowpoke) ProcessBatch(dir nf.Direction, frames [][]byte, out *nf.Output) {
	for range frames {
		time.Sleep(20 * time.Microsecond)
	}
	s.Function.ProcessBatch(dir, frames, out)
}

func registerSlowpoke(st *station) {
	nf.Default.Register("slowpoke", func(name string, params nf.Params) (nf.Function, error) {
		fn, err := nf.Default.New("counter", name, params)
		return slowpoke{fn}, err
	})
	st.repo.Push(container.Image{Name: agent.ImageForKind("slowpoke"), SizeBytes: 1 << 20, MemoryBytes: 1 << 20})
}

// TestOverdrivenChainDropsAtItsOwnIngressQueue: a chain slower than its
// client fills the queue of the leg that feeds it, and that leg tail-drops.
// The loss must not go missing: sent = delivered + the drop counters on the
// way in, nothing behind the chain drops, and every buffer comes back.
func TestOverdrivenChainDropsAtItsOwnIngressQueue(t *testing.T) {
	st := newStation(t)
	registerSlowpoke(st)
	base := packet.FramePoolOutstanding()
	spec := agent.DeploySpec{Chain: "slow", Client: "phone", Enabled: true,
		Functions: []agent.NFSpec{{Kind: "slowpoke", Name: "s0"}}}
	if _, err := st.ag.Deploy(spec); err != nil {
		t.Fatal(err)
	}
	sink := &seqSink{}
	st.server.HandleAnyUDP(sink.handle)
	swDropped := st.ag.Switch().Stats().Dropped

	// A leg queues 512 and the chain drains ~50 frames/ms at best; bursts of
	// 64 are six times that and still nothing to the client's veth.
	const sent = 4000
	for seq := uint32(0); seq < sent; seq++ {
		st.sendSeq(seq)
		if seq%64 == 63 {
			time.Sleep(200 * time.Microsecond)
		}
	}
	clientVeth := st.client.Endpoint()
	legIn, legOut := st.ag.ChainLegs("slow")
	dropsIn := func() uint64 { return clientVeth.Stats().Drops + legIn.Stats().Drops }
	waitCount(t, 10*time.Second, func() bool { return uint64(sink.count())+dropsIn() == sent })
	if legIn.Stats().Drops == 0 {
		t.Fatalf("%d frames into a chain six times too slow and its ingress leg dropped none", sent)
	}
	t.Logf("sent %d = delivered %d + dropped at the chain's ingress leg %d + at the client veth %d",
		sent, sink.count(), legIn.Stats().Drops, clientVeth.Stats().Drops)

	uplink := st.server.Endpoint().Peer()
	if d := uplink.Stats().Drops + clientVeth.Peer().Stats().Drops + legOut.Stats().Drops +
		legIn.Peer().Stats().Drops + legOut.Peer().Stats().Drops; d != 0 {
		t.Errorf("%d drops on other endpoints", d)
	}
	if d := st.ag.Switch().Stats().Dropped - swDropped; d != 0 {
		t.Errorf("switch dropped %d", d)
	}
	rep := st.ag.Report()
	if len(rep.Chains) != 1 || rep.Chains[0].Dropped != 0 || rep.RetiredDrops != 0 {
		t.Errorf("chain-side loss accounting moved: %+v retired=%d", rep.Chains, rep.RetiredDrops)
	}
	waitCount(t, 2*time.Second, func() bool { return packet.FramePoolOutstanding() == base })
}

// TestSlowChainLosesOnlyItsOwnTraffic: inbound traffic for every client of a
// station arrives on one uplink ring, drained by one goroutine. That
// goroutine must not run any chain's NFs: a chain that cannot keep up with
// its client's share fills its own leg, and the neighbour's frames — a tenth
// of the load, through a chain of its own — all arrive.
func TestSlowChainLosesOnlyItsOwnTraffic(t *testing.T) {
	st := newStation(t)
	registerSlowpoke(st)
	tabletMAC, tabletIP := packet.MAC{2, 0, 0, 0, 0, 3}, packet.IP{10, 0, 0, 3}
	tb, tbSw := netem.NewVethPair("tb", "ap2")
	t.Cleanup(tb.Close)
	st.ag.Switch().Attach(2, tbSw)
	tablet := netem.NewHost(tabletMAC, tabletIP, tb)
	st.server.Learn(tabletIP, tabletMAC)
	st.ag.AttachClient("tablet", tabletMAC, tabletIP, 2)

	for _, spec := range []agent.DeploySpec{
		{Chain: "slow", Client: "phone", Enabled: true, Functions: []agent.NFSpec{{Kind: "slowpoke", Name: "s0"}}},
		{Chain: "quick", Client: "tablet", Enabled: true, Functions: []agent.NFSpec{{Kind: "counter", Name: "c0"}}},
	} {
		if _, err := st.ag.Deploy(spec); err != nil {
			t.Fatal(err)
		}
	}
	phoneGot, tabletGot := &seqSink{}, &seqSink{}
	st.client.HandleAnyUDP(phoneGot.handle)
	tablet.HandleAnyUDP(tabletGot.handle)

	// 40 frames/ms toward the phone — the slow chain drains ~50/ms at the
	// very best — and every tenth frame toward the tablet.
	const toPhone, every = 4000, 10
	var payload [4]byte
	for seq := uint32(0); seq < toPhone; seq++ {
		binary.BigEndian.PutUint32(payload[:], seq)
		st.server.SendUDP(packet.Endpoint{Addr: clientIP, Port: 7}, 1234, payload[:])
		if seq%every == 0 {
			binary.BigEndian.PutUint32(payload[:], seq/every)
			st.server.SendUDP(packet.Endpoint{Addr: tabletIP, Port: 7}, 1234, payload[:])
		}
		if seq%40 == 39 {
			time.Sleep(time.Millisecond)
		}
	}
	_, slowOut := st.ag.ChainLegs("slow")
	waitCount(t, 10*time.Second, func() bool {
		return uint64(phoneGot.count())+slowOut.Stats().Drops == toPhone
	})
	if slowOut.Stats().Drops == 0 {
		t.Fatal("the slow chain kept up: the test drove nothing into overload")
	}
	waitCount(t, 2*time.Second, func() bool { return tabletGot.count() == toPhone/every })
	if d := st.server.Endpoint().Stats().Drops; d != 0 {
		t.Errorf("the shared uplink ring dropped %d frames", d)
	}
	t.Logf("phone got %d of %d (its chain's leg dropped %d); tablet got %d of %d",
		phoneGot.count(), toPhone, slowOut.Stats().Drops, tabletGot.count(), toPhone/every)
}
