package builtin_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"gnf/internal/clock"
	"gnf/internal/nf"
	"gnf/internal/nf/nat"
	"gnf/internal/packet"
)

// Every kind that migrates state writes it as key-ordered records (nf's
// RecordWriter), so these tests can hold each to byte equality: an export
// since nothing merged into a fresh instance exports the same bytes, it
// equals its deltas replayed, and a blob cut short is an error, never a
// panic.

// natLo and natHi bound the NAT's pool: sixteen ports for the traffic's
// thirty-two flows, so the pool runs dry, and few enough for FuzzImportState
// to probe every one.
const natLo, natHi = 20000, 20015

// statefulKinds configures one instance of every kind with state to move,
// and the traffic that fills it. The caches hold more than the traffic
// stores: deltas carry no tombstones, so an eviction between two of them
// would stay behind in their replay.
var statefulKinds = []struct {
	kind   string
	params nf.Params
	drive  func(fn nf.Function, g *trafficGen, clk *clock.Virtual)
}{
	{"counter", nf.Params{"alert_pps": "40", "signatures": "evil"}, driveFlows},
	{"dnscache", nil, driveDNS},
	{"dnslb", nf.Params{"service": "svc.gnf", "backends": "10.1.0.1,10.1.0.2,10.1.0.3"}, driveDNS},
	{"firewall", equivalenceRows[0].specs[0].params, driveFlows},
	{"httpcache", nil, driveHTTP},
	{"nat", nf.Params{"nat_ip": eqNATIP.String(), "ports": fmt.Sprintf("%d-%d", natLo, natHi)}, driveFlows},
}

func newStateful(tb testing.TB, kind string, params nf.Params, clk clock.Clock) nf.Stateful {
	tb.Helper()
	fn, err := nf.Default.New(kind, "st", params)
	if err != nil {
		tb.Fatal(err)
	}
	if cs, ok := fn.(nf.ClockSetter); ok {
		cs.SetClock(clk)
	}
	return fn.(nf.Stateful)
}

// withoutEpochs names the kinds that keep no epochs: they answer every
// since with all of their state.
var withoutEpochs = map[string]bool{"dnslb": true, "firewall": true}

func exportState(tb testing.TB, s nf.Stateful, since uint64) ([]byte, uint64) {
	tb.Helper()
	data, epoch, err := s.ExportDelta(since)
	if err != nil {
		tb.Fatal(err)
	}
	return data, epoch
}

// driveFlows sends forty of the equivalence test's batches, a tenth of a
// second apart, so the counter's windows roll.
func driveFlows(fn nf.Function, g *trafficGen, clk *clock.Virtual) {
	for i := 0; i < 40; i++ {
		dir := nf.Outbound
		if g.rng.Intn(3) == 0 {
			dir = nf.Inbound
		}
		for _, f := range g.batch(dir) {
			fn.Process(dir, f)
		}
		clk.Advance(100 * time.Millisecond)
	}
}

// driveDNS sends queries and answers for twenty names of a round and for
// the balancer's service.
func driveDNS(fn nf.Function, g *trafficGen, _ *clock.Virtual) {
	client, resolver := packet.IP{10, 0, 0, 1}, packet.IP{10, 0, 0, 53}
	round := g.rng.Int()
	for i := 0; i < 60; i++ {
		name := fmt.Sprintf("n%d-%d.example", round, g.rng.Intn(20))
		if g.rng.Intn(4) == 0 {
			name = "svc.gnf"
		}
		id := uint16(g.rng.Intn(1 << 16))
		q, _ := packet.NewDNSQuery(id, name).Append(nil)
		fn.Process(nf.Outbound, packet.BuildUDP(clientMAC(0), eqServer, client, resolver, 5353, 53, q))
		ans, _ := packet.AnswerA(packet.NewDNSQuery(id, name), uint32(30+g.rng.Intn(300)), clientIP(i), eqServerIP).Append(nil)
		fn.Process(nf.Inbound, packet.BuildUDP(eqServer, clientMAC(0), resolver, client, 53, 5353, ans))
	}
}

// driveHTTP sends GETs for thirty paths of a round, each answered once it
// misses.
func driveHTTP(fn nf.Function, g *trafficGen, _ *clock.Virtual) {
	round := g.rng.Int()
	for i := 0; i < 60; i++ {
		port := uint16(40000 + i)
		get := packet.BuildHTTPRequest("GET", "cdn.example", fmt.Sprintf("/%d/%d", round, g.rng.Intn(30)), nil, nil)
		out := fn.Process(nf.Outbound, packet.BuildTCP(clientMAC(0), eqServer, clientIP(0), eqServerIP, port, 80,
			packet.TCPOptions{Seq: 100, Ack: 7, Flags: packet.TCPAck | packet.TCPPsh}, get))
		if len(out.Reverse) > 0 {
			continue // a hit
		}
		body := make([]byte, g.rng.Intn(64))
		g.rng.Read(body)
		resp := packet.BuildHTTPResponse(200, "OK", nil, body)
		fn.Process(nf.Inbound, packet.BuildTCP(eqServer, clientMAC(0), eqServerIP, clientIP(0), 80, port,
			packet.TCPOptions{Seq: 7, Ack: 200, Flags: packet.TCPAck | packet.TCPPsh}, resp))
	}
}

func TestStateRoundTripsEveryKind(t *testing.T) {
	for _, k := range statefulKinds {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", k.kind, seed), func(t *testing.T) {
				clk := clock.NewVirtual()
				src := newStateful(t, k.kind, k.params, clk)
				g := &trafficGen{rng: rand.New(rand.NewSource(seed))}

				// Two rounds of traffic, an export since the last after each.
				k.drive(src.(nf.Function), g, clk)
				first, epoch := exportState(t, src, 0)
				k.drive(src.(nf.Function), g, clk)
				second, _ := exportState(t, src, epoch)
				full, _ := exportState(t, src, 0)
				if empty, _ := exportState(t, newStateful(t, k.kind, k.params, clk), 0); len(full) <= len(empty) {
					t.Fatalf("the traffic left no state: %d B, %d B empty", len(full), len(empty))
				}
				if withoutEpochs[k.kind] {
					for _, since := range []uint64{epoch, 1, math.MaxUint64} {
						if got, _ := exportState(t, src, since); !bytes.Equal(got, full) {
							t.Fatalf("since %d exported %x, not all of the state %x", since, got, full)
						}
					}
				} else if epoch == 0 {
					t.Fatal("a round of traffic left the epoch at 0")
				}

				dst := newStateful(t, k.kind, k.params, clk)
				if err := dst.ImportDelta(full); err != nil {
					t.Fatal(err)
				}
				if again, _ := exportState(t, dst, 0); !bytes.Equal(again, full) {
					t.Fatalf("export → import → export changed the bytes\nfirst  %x\nsecond %x", full, again)
				}

				replay := newStateful(t, k.kind, k.params, clk)
				for _, d := range [][]byte{first, second} {
					if err := replay.ImportDelta(d); err != nil {
						t.Fatal(err)
					}
				}
				if got, _ := exportState(t, replay, 0); !bytes.Equal(got, full) {
					t.Fatalf("exports of %d and %d B replayed export\n%x\nthe export since nothing is\n%x", len(first), len(second), got, full)
				}

				for n := 0; n < len(full); n++ {
					if err := newStateful(t, k.kind, k.params, clk).ImportDelta(full[:n]); !errors.Is(err, nf.ErrBadRecord) {
						t.Fatalf("%d of %d bytes imported: %v", n, len(full), err)
					}
				}
			})
		}
	}
}

// FuzzImportState feeds every stateful kind arbitrary blobs, the first byte
// picking the kind: into a fresh instance, and merged into one holding a
// round of traffic's state. The decoder never panics; whatever it accepts
// exports bytes that import to the same bytes; and a NAT it accepted
// answers on exactly as many ports as it has keys.
func FuzzImportState(f *testing.F) {
	seeded := make([][]byte, len(statefulKinds))
	for i, k := range statefulKinds {
		clk := clock.NewVirtual()
		src := newStateful(f, k.kind, k.params, clk)
		k.drive(src.(nf.Function), &trafficGen{rng: rand.New(rand.NewSource(int64(i)))}, clk)
		seeded[i], _ = exportState(f, src, 0)
		f.Add(append([]byte{byte(i)}, seeded[i]...))
		f.Add(append([]byte{byte(i)}, seeded[i][:len(seeded[i])/2]...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		i := int(data[0]) % len(statefulKinds)
		k, blob := statefulKinds[i], data[1:]
		clk := clock.NewVirtual()
		for _, merged := range []bool{false, true} {
			fn := newStateful(t, k.kind, k.params, clk)
			if merged {
				if err := fn.ImportDelta(seeded[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := fn.ImportDelta(blob); err != nil {
				continue
			}
			first, _ := exportState(t, fn, 0)
			again := newStateful(t, k.kind, k.params, clk)
			if err := again.ImportDelta(first); err != nil {
				t.Fatalf("%s (merged %v) re-importing its own export: %v", k.kind, merged, err)
			}
			if second, _ := exportState(t, again, 0); !bytes.Equal(first, second) {
				t.Fatalf("%s (merged %v): export → import → export changed the bytes\nfirst  %x\nsecond %x", k.kind, merged, first, second)
			}
			if n, ok := fn.(*nat.NAT); ok {
				if ports := answeringPorts(n); ports != n.Mappings() {
					t.Fatalf("NAT (merged %v) answers on %d ports for %d keys", merged, ports, n.Mappings())
				}
			}
		}
	})
}

// answeringPorts counts the pool's ports that translate a datagram sent to
// them back to a client.
func answeringPorts(n *nat.NAT) int {
	ports := 0
	for port := natLo; port <= natHi; port++ {
		reply := packet.BuildUDP(eqServer, nat.VirtualMAC(eqNATIP), eqServerIP, eqNATIP, 53, uint16(port), nil)
		if out := n.Process(nf.Inbound, reply); len(out.Forward) == 1 {
			ports++
		}
	}
	return ports
}
