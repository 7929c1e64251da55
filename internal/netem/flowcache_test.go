package netem

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
	"time"

	"gnf/internal/clock"
	"gnf/internal/packet"
)

// hitsOf injects flows first..first+n-1 of frame's family on port 1 and
// returns how many of them were served from the flow cache.
func hitsOf(sw *Switch, frame []byte, first, n int) uint64 {
	before := sw.Stats().CacheHits
	for i := first; i < first+n; i++ {
		sw.Inject(1, flowFrame(frame, i))
	}
	return sw.Stats().CacheHits - before
}

// TestFlowCacheAdmitsOnSecondSight pins the admission rule: a flow's first
// frame occupies no slot, its second fills one, its third is a hit.
func TestFlowCacheAdmitsOnSecondSight(t *testing.T) {
	sw, frame := newSteerSwitch(2)
	for sight, want := range []struct {
		entries int
		hits    uint64
	}{{0, 0}, {1, 0}, {1, 1}} {
		sw.Inject(1, frame)
		if st := sw.Stats(); st.FlowEntries != want.entries || st.CacheHits != want.hits {
			t.Fatalf("after sight %d: %d entries, %d hits, want %d and %d",
				sight+1, st.FlowEntries, st.CacheHits, want.entries, want.hits)
		}
	}
}

// TestFlowEntriesCountsTheLivingOnly is the regression test for the
// flow_entries gauge reporting entries no lookup can match: a rule change
// outdates every cached verdict, and the count must say so before the next
// frame arrives. Stats may scan the table but must not allocate.
func TestFlowEntriesCountsTheLivingOnly(t *testing.T) {
	sw, frame := newSteerSwitch(2)
	const flows = 100
	hitsOf(sw, frame, 0, flows)
	hitsOf(sw, frame, 0, flows) // admitted and filled
	if got := sw.Stats().FlowEntries; got != flows {
		t.Fatalf("FlowEntries = %d after warming %d flows", got, flows)
	}
	sw.AddRule(Rule{Priority: 1, Action: ActionDrop})
	if got := sw.Stats().FlowEntries; got != 0 {
		t.Fatalf("FlowEntries = %d after a rule change, want 0: none of them can match", got)
	}
	if allocs := testing.AllocsPerRun(10, func() { sw.Stats() }); allocs != 0 {
		t.Fatalf("Stats allocates %.0f times", allocs)
	}
}

// TestFlowCacheHoldsTenThousandResidentFlows keeps the capacity the cache
// had as sixteen maps: 10 000 flows revisited round-robin — a working set
// ten times the table's first size — are served from it once it has grown
// to hold them, within five rounds of revisits.
func TestFlowCacheHoldsTenThousandResidentFlows(t *testing.T) {
	sw, frame := newSteerSwitch(2)
	const flows = 10000
	hitsOf(sw, frame, 0, flows) // first sight
	var ratio float64
	for round := 1; round <= 5; round++ {
		ratio = float64(hitsOf(sw, frame, 0, flows)) / flows
		t.Logf("round %d: hit ratio %.3f, %d entries", round, ratio, sw.Stats().FlowEntries)
	}
	if ratio < 0.95 {
		t.Fatalf("hit ratio %.3f in the fifth round of revisits, want >= 0.95", ratio)
	}
	if got := sw.Stats().FlowEntries; got > flowCacheMaxSize {
		t.Fatalf("%d entries, cap %d", got, flowCacheMaxSize)
	}
}

// TestOneShotFlowsNeitherEvictNorGrow interleaves 256 resident flows with
// 100 000 flows seen once each: the residents keep hitting, and the table
// stays at the size it started with.
func TestOneShotFlowsNeitherEvictNorGrow(t *testing.T) {
	sw, frame := newSteerSwitch(2)
	const resident, rounds, oneShotsPerRound = 256, 100, 1000
	hitsOf(sw, frame, 0, resident)
	hitsOf(sw, frame, 0, resident) // admitted and filled
	var hits uint64
	for r := 0; r < rounds; r++ {
		hits += hitsOf(sw, frame, 0, resident)
		hitsOf(sw, frame, 1<<20+r*oneShotsPerRound, oneShotsPerRound)
		if got := sw.Stats().FlowEntries; got > flowCacheMinSize {
			t.Fatalf("round %d: %d entries, want <= %d: one-shot flows grew the table", r, got, flowCacheMinSize)
		}
	}
	if ratio := float64(hits) / (resident * rounds); ratio < 0.99 {
		t.Fatalf("resident hit ratio %.4f with one-shot flows in between, want >= 0.99", ratio)
	}
}

// steerModel is the oracle of the differential tests: the rule table as
// the test installed it, evaluated from scratch — no snapshot, no sort kept
// between calls, no cache.
type steerModel struct {
	rules  []Rule
	groups map[int][]PortID
}

func (m *steerModel) verdict(in PortID, p *packet.Parser) (Action, PortID) {
	var best *Rule
	for i := range m.rules {
		r := &m.rules[i]
		if r.Match.Matches(in, p) && (best == nil || r.Priority > best.Priority ||
			r.Priority == best.Priority && r.ID < best.ID) {
			best = r
		}
	}
	switch {
	case best == nil:
		return ActionNormal, 0
	case best.Action != ActionGroup:
		return best.Action, best.OutPort
	}
	members := m.groups[best.Group]
	if len(members) == 0 {
		return ActionDrop, 0
	}
	return ActionRedirect, members[p.FlowKey().Hash()%uint64(len(members))]
}

// The small value sets rules and frames are both drawn from, so that rules
// do match and verdicts do differ between neighbouring keys.
var (
	steerVIDs  = []uint16{10, 20}
	steerPorts = []uint16{53, 80, 443, 5000}
)

// steerFrames is the differential tests' key pool: UDP and TCP between a
// few hosts, the same tagged into two VLANs, non-first fragments, ARP and
// an EtherType the parser stops at.
func steerFrames(rng *rand.Rand, n int) [][]byte {
	frames := make([][]byte, n)
	for i := range frames {
		src, dst := byte(1+rng.Intn(6)), byte(1+rng.Intn(6))
		sport, dport := uint16(1024+rng.Intn(64)), steerPorts[rng.Intn(len(steerPorts))]
		f := packet.BuildUDP(mac(src), mac(dst), ip(src), ip(dst), sport, dport, []byte("x"))
		switch rng.Intn(8) {
		case 0:
			f = packet.BuildTCP(mac(src), mac(dst), ip(src), ip(dst), sport, dport, packet.TCPOptions{}, nil)
		case 1:
			f = packet.BuildARP(packet.ARPRequest, mac(src), ip(src), packet.MAC{}, ip(dst))
		case 2:
			f = packet.TagVLAN(f, 0, steerVIDs[rng.Intn(len(steerVIDs))])
		case 3:
			binary.BigEndian.PutUint16(f[20:], uint16(1+rng.Intn(100))) // fragment offset
		case 4:
			binary.BigEndian.PutUint16(f[12:], 0x88b5) // local experimental EtherType
		}
		frames[i] = f
	}
	return frames
}

// steerChurn applies one random control-plane change to the switch and to
// the model alike.
func steerChurn(rng *rand.Rand, sw *Switch, m *steerModel, group int) {
	pick := func() PortID { return PortID(1 + rng.Intn(5)) }
	switch op := rng.Intn(10); {
	case op < 4 && len(m.rules) < 24:
		r := Rule{Priority: rng.Intn(4), Action: Action(rng.Intn(4)), OutPort: pick(), Group: group}
		if rng.Intn(2) == 0 {
			in := pick()
			r.Match.InPort = &in
		}
		if rng.Intn(3) == 0 {
			src := mac(byte(1 + rng.Intn(6)))
			r.Match.SrcMAC = &src
		}
		if rng.Intn(3) == 0 {
			dst := ip(byte(1 + rng.Intn(6)))
			r.Match.DstIP = &dst
		}
		if rng.Intn(3) == 0 {
			proto := []uint8{packet.ProtoUDP, packet.ProtoTCP}[rng.Intn(2)]
			r.Match.Proto = &proto
		}
		if rng.Intn(3) == 0 {
			port := steerPorts[rng.Intn(len(steerPorts))]
			r.Match.DstPort = &port
		}
		if rng.Intn(4) == 0 {
			vid := steerVIDs[rng.Intn(len(steerVIDs))]
			r.Match.VID = &vid
		}
		if rng.Intn(6) == 0 {
			et := uint16(packet.EtherTypeARP)
			r.Match.EtherType = &et
		}
		r.ID = sw.AddRule(r)
		m.rules = append(m.rules, r)
	case op < 7 && len(m.rules) > 0:
		i := rng.Intn(len(m.rules))
		sw.RemoveRule(m.rules[i].ID)
		m.rules = append(m.rules[:i], m.rules[i+1:]...)
	case op < 9:
		members := make([]PortID, rng.Intn(4))
		for i := range members {
			members[i] = pick()
		}
		sw.SetGroup(group, members)
		m.groups[group] = members
	default: // a port comes and goes: every verdict stays, the generation moves
		sw.Attach(50, newEndpoint("spare", clock.System(), LinkParams{QueueLen: 1}, 1))
		sw.Detach(50)
	}
}

func newSteerModel(sw *Switch) (*steerModel, int) {
	for port := PortID(1); port <= 5; port++ {
		sw.Attach(port, newEndpoint("p", clock.System(), LinkParams{QueueLen: 1}, 1))
	}
	group := sw.AddGroup(nil)
	return &steerModel{groups: map[int][]PortID{}}, group
}

// TestSteerEqualsRuleScan drives one switch with seeded random sequences
// of frames and control-plane changes, and after every step compares
// steer's verdict — cached, or scanned and perhaps cached — with the
// oracle's. Half the frames come from a hot set so that keys are admitted,
// hit, outdated and refilled; the last seed differs from run to run.
func TestSteerEqualsRuleScan(t *testing.T) {
	for _, seed := range []int64{1, 2, time.Now().UnixNano()} {
		rng := rand.New(rand.NewSource(seed))
		sw := NewSwitch("diff")
		m, group := newSteerModel(sw)
		frames := steerFrames(rng, 2000)
		var p packet.Parser
		hits := 0
		for step := 0; step < 60000; step++ {
			if rng.Intn(200) == 0 {
				steerChurn(rng, sw, m, group)
				continue
			}
			in, f := PortID(1+rng.Intn(4)), frames[rng.Intn(len(frames))]
			if rng.Intn(2) == 0 {
				in, f = 1, frames[rng.Intn(64)]
			}
			if err := p.Parse(f); err != nil {
				t.Fatal(err)
			}
			action, out, hit := sw.steer(in, &p, sw.state.Load())
			if hit {
				hits++
			}
			if wantAction, wantOut := m.verdict(in, &p); action != wantAction || out != wantOut {
				t.Fatalf("seed %d step %d: port %d key %+v steered %v to %d, the rule scan says %v to %d",
					seed, step, in, p.FlowKey(), action, out, wantAction, wantOut)
			}
		}
		if hits < 10000 {
			t.Fatalf("seed %d: %d cache hits in 60000 steps: the cache was hardly in play", seed, hits)
		}
	}
}

// TestSteerEqualsRuleScanUnderChurn is the same comparison with the cache
// shared: four goroutines inject the pool on four ports while a fifth
// churns the tables. Run under -race. At quiesce every (port, key) is
// steered three times — unseen, admitted, cached — and each answer must be
// the oracle's against the tables as the churn left them.
func TestSteerEqualsRuleScanUnderChurn(t *testing.T) {
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	sw := NewSwitch("diff")
	m, group := newSteerModel(sw)
	frames := steerFrames(rng, 2000)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for port := PortID(1); port <= 4; port++ {
		wg.Add(1)
		go func(port PortID) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					sw.Inject(port, frames[(i*int(port))%len(frames)])
				}
			}
		}(port)
	}
	for i := 0; i < 400; i++ {
		steerChurn(rng, sw, m, group)
		time.Sleep(100 * time.Microsecond)
	}
	close(stop)
	wg.Wait()
	var p packet.Parser
	for port := PortID(1); port <= 4; port++ {
		for _, f := range frames {
			if err := p.Parse(f); err != nil {
				t.Fatal(err)
			}
			wantAction, wantOut := m.verdict(port, &p)
			for sight := 1; sight <= 3; sight++ {
				if action, out, _ := sw.steer(port, &p, sw.state.Load()); action != wantAction || out != wantOut {
					t.Fatalf("seed %d: port %d key %+v sight %d steered %v to %d, the rule scan says %v to %d",
						seed, port, p.FlowKey(), sight, action, out, wantAction, wantOut)
				}
			}
		}
	}
}
