// Benchmarks regenerating the paper's evaluation (see EXPERIMENTS.md for
// the experiment index and the paper-vs-measured record):
//
//	E1 / Fig.2  BenchmarkFig2RoamingMigration      roaming with live traffic
//	E2          BenchmarkE2InstantiationContainerVsVM  attach latency
//	E3          BenchmarkE3DensityFootprint        NFs per edge box
//	E4          BenchmarkE4ChainThroughput         dataplane vs chain length
//	E4          BenchmarkE4PerNFThroughput         per-NF-type forwarding
//	E5          BenchmarkE5ControlPlaneScale       manager vs #agents
//	E5          BenchmarkE5SharingDensity          shared pools on vs off, 1k clients
//	E6          BenchmarkE6MigrationStrategies     cold vs stateful ablation
//	E6          BenchmarkE6LiveMigration           stop-and-copy vs pre-copy by state size
//	E7          BenchmarkE7NotificationPipeline    NF->Agent->Manager alerts
//	E7          BenchmarkE7QoSPlacement            placement without vs with a topology, chain RTT
//	E8          BenchmarkE8OffloadAblation         GNFC edge vs cloud hosting
//	E8          BenchmarkE8BatchedDataplane        batched vs per-frame pipeline
//	E9          BenchmarkE9FailoverRecovery        station-crash recovery
//	E9          BenchmarkE9TraceOverhead           dataplane cost of 1% frame sampling
//	E10         BenchmarkE10HandoffStorm           2k-client handoff storm, serial vs parallel
//	E11         BenchmarkE11SplitChain             split-chain head-only vs whole-chain roaming
//
// Custom metrics use b.ReportMetric: modeled costs (virtual-clock time) are
// reported as *_ms metrics; counts as their own units.
package gnf

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strconv"
	"testing"
	"time"

	"gnf/internal/agent"
	"gnf/internal/baseline"
	"gnf/internal/clock"
	"gnf/internal/container"
	"gnf/internal/core"
	"gnf/internal/manager"
	"gnf/internal/metrics"
	"gnf/internal/nf"
	"gnf/internal/packet"
	"gnf/internal/topology"
	"gnf/internal/traffic"
	"gnf/internal/wire"

	"gnf/internal/netem"

	_ "gnf/internal/nf/builtin"
)

// newBenchSwitch builds a minimal station switch with an unconnected
// uplink, enough dataplane for a control-plane-only agent.
func newBenchSwitch(name string) *netem.Switch {
	sw := netem.NewSwitch(name)
	up, _ := netem.NewVethPair(name+"-up", name+"-core")
	sw.Attach(0, up)
	return sw
}

var (
	benchPhoneMAC  = packet.MAC{2, 0, 0, 0, 0, 0x10}
	benchPhoneIP   = packet.IP{10, 0, 0, 10}
	benchServerMAC = packet.MAC{2, 0, 0, 0, 0, 0x99}
	benchServerIP  = packet.IP{10, 99, 0, 1}
)

func benchSystem(b *testing.B, strategy manager.Strategy, clk clock.Clock) *core.System {
	b.Helper()
	sys, err := core.NewSystem(core.Config{
		Clock:          clk,
		Strategy:       strategy,
		ReportInterval: time.Hour, // reports off the hot path
		Stations: []core.StationConfig{
			{ID: "st-a", Cells: []core.CellConfig{{ID: "cell-a", Center: topology.Point{X: 0}, Radius: 60}}},
			{ID: "st-b", Cells: []core.CellConfig{{ID: "cell-b", Center: topology.Point{X: 100}, Radius: 60}}},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sys.Close)
	if err := sys.AddClient("phone", benchPhoneMAC, benchPhoneIP); err != nil {
		b.Fatal(err)
	}
	if err := sys.Topo.Attach("phone", "cell-a"); err != nil {
		b.Fatal(err)
	}
	if err := sys.WaitClientAt("phone", "st-a", 10*time.Second); err != nil {
		b.Fatal(err)
	}
	return sys
}

// --- E1 / Fig. 2: roaming with live traffic -------------------------------

// BenchmarkFig2RoamingMigration reproduces the demo: a client streaming CBR
// roams between cells; its chain migrates. Reported metrics: measured
// migration downtime and packets lost per handoff (wall clock, real TCP
// control plane).
func BenchmarkFig2RoamingMigration(b *testing.B) {
	sys := benchSystem(b, manager.StrategyStateful, clock.System())
	server := sys.AddServer("web", benchServerMAC, benchServerIP)
	server.Learn(benchPhoneIP, benchPhoneMAC)
	sink := traffic.NewSink(server, 7000, sys.Clock)
	sys.ClientHost("phone").Learn(benchServerIP, benchServerMAC)

	spec := manager.ChainSpec{
		Name: "chain",
		Functions: []agent.NFSpec{
			{Kind: "firewall", Name: "fw", Params: nf.Params{"policy": "accept"}},
			{Kind: "counter", Name: "acct"},
		},
	}
	if err := sys.AttachChain("phone", spec); err != nil {
		b.Fatal(err)
	}
	if err := sys.WaitChainOn("st-a", "chain", 10*time.Second); err != nil {
		b.Fatal(err)
	}

	cells := []topology.CellID{"cell-b", "cell-a"}
	stations := []topology.StationID{"st-b", "st-a"}
	var seq uint64
	const pps, perPhase = 200, 100

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Stream during the handoff.
		done := make(chan struct{})
		go func(start uint64) {
			defer close(done)
			traffic.CBRFrom(sys.ClientHost("phone"),
				packet.Endpoint{Addr: benchServerIP, Port: 7000}, 6000, start, perPhase, 128, pps)
		}(seq)
		if err := sys.Topo.Attach("phone", cells[i%2]); err != nil {
			b.Fatal(err)
		}
		if err := sys.WaitClientAt("phone", stations[i%2], 10*time.Second); err != nil {
			b.Fatal(err)
		}
		if err := sys.WaitChainOn(stations[i%2], "chain", 10*time.Second); err != nil {
			b.Fatal(err)
		}
		sys.ClientHost("phone").Learn(benchServerIP, benchServerMAC)
		<-done
		seq += perPhase
	}
	b.StopTimer()
	time.Sleep(100 * time.Millisecond) // drain in flight

	migs := sys.Manager.Migrations()
	var downtime time.Duration
	for _, m := range migs {
		downtime += m.Downtime
	}
	if len(migs) > 0 {
		b.ReportMetric(float64(downtime.Milliseconds())/float64(len(migs)), "downtime_ms/roam")
	}
	rep := sink.Analyze(int(seq))
	b.ReportMetric(float64(rep.Lost)/float64(b.N), "pkts_lost/roam")
	b.ReportMetric(float64(rep.Received), "pkts_delivered")
}

// --- E2: instantiation latency, container vs VM ---------------------------

// BenchmarkE2InstantiationContainerVsVM measures NF attach latency (create
// + start, with cold or warm image cache) on the virtual clock: the
// modeled latency is reported as attach_ms, the paper's container-vs-VM
// agility gap.
func BenchmarkE2InstantiationContainerVsVM(b *testing.B) {
	img := container.Image{Name: "gnf/firewall:1.0", SizeBytes: 4 << 20, MemoryBytes: 6 << 20}
	cases := []struct {
		name string
		vm   bool
		warm bool
	}{
		{"container-cold", false, false},
		{"container-warm", false, true},
		{"vm-cold", true, false},
		{"vm-warm", true, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			clk := clock.NewAutoVirtual()
			repo := container.NewRepository(clk, 100_000_000, 5*time.Millisecond)
			repo.Push(img)
			vmRepo := baseline.NewVMRepository(clk, repo, 100_000_000, 0)
			var total time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				var rt *container.Runtime
				name := img.Name
				if c.vm {
					rt = baseline.NewVMRuntime("edge", clk, vmRepo)
					name = "vm/" + img.Name
				} else {
					rt = container.NewRuntime("edge", clk, repo)
				}
				if c.warm {
					if err := rt.PrefetchImage(name); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				start := clk.Now()
				ctr, err := rt.Create(container.Config{Name: "nf", Image: name})
				if err != nil {
					b.Fatal(err)
				}
				if err := ctr.Start(); err != nil {
					b.Fatal(err)
				}
				total += clk.Since(start)
			}
			b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "attach_ms")
		})
	}
}

// --- E3: density and footprint ---------------------------------------------

// BenchmarkE3DensityFootprint packs a 1 GiB edge box with NFs until memory
// exhausts, container vs VM. Reported metric: NFs packed.
func BenchmarkE3DensityFootprint(b *testing.B) {
	img := container.Image{Name: "gnf/firewall:1.0", SizeBytes: 4 << 20, MemoryBytes: 6 << 20}
	const hostMem = 1 << 30
	for _, vm := range []bool{false, true} {
		name := "container"
		if vm {
			name = "vm"
		}
		b.Run(name, func(b *testing.B) {
			var packed int
			for i := 0; i < b.N; i++ {
				clk := clock.NewAutoVirtual()
				repo := container.NewRepository(clk, 0, 0)
				repo.Push(img)
				var rt *container.Runtime
				image := img.Name
				if vm {
					rt = baseline.NewVMRuntime("edge", clk, baseline.NewVMRepository(clk, repo, 0, 0),
						container.WithCapacity(hostMem))
					image = "vm/" + img.Name
				} else {
					rt = container.NewRuntime("edge", clk, repo, container.WithCapacity(hostMem))
				}
				packed = 0
				for {
					if _, err := rt.Create(container.Config{Image: image}); err != nil {
						break
					}
					packed++
				}
			}
			b.ReportMetric(float64(packed), "nfs_packed")
			b.ReportMetric(float64(hostMem)/float64(packed)/(1<<20), "MiB/nf")
		})
	}
}

// --- E4: dataplane throughput ----------------------------------------------

func mkChain(b *testing.B, length int) *nf.Chain {
	b.Helper()
	fns := make([]nf.Function, 0, length)
	for i := 0; i < length; i++ {
		fn, err := nf.Default.New("firewall", fmt.Sprintf("fw%d", i),
			nf.Params{"policy": "accept", "rules": "drop out tcp any any any 23"})
		if err != nil {
			b.Fatal(err)
		}
		fns = append(fns, fn)
	}
	return nf.NewChain("bench", fns...)
}

// BenchmarkE4ChainThroughput pushes frames through chains of 0..5 firewall
// NFs at three frame sizes: the transparent-chaining cost curve.
func BenchmarkE4ChainThroughput(b *testing.B) {
	for _, chainLen := range []int{0, 1, 2, 3, 5} {
		for _, size := range []int{64, 512, 1500} {
			b.Run(fmt.Sprintf("len%d/%dB", chainLen, size), func(b *testing.B) {
				chain := mkChain(b, chainLen)
				payload := make([]byte, size-42) // 42B of Ethernet+IP+UDP headers
				frame := packet.BuildUDP(benchPhoneMAC, benchServerMAC, benchPhoneIP, benchServerIP, 6000, 7000, payload)
				b.SetBytes(int64(len(frame)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					out := chain.Process(nf.Outbound, frame)
					if len(out.Forward) != 1 {
						b.Fatal("frame lost in chain")
					}
				}
			})
		}
	}
}

// BenchmarkE4PerNFThroughput forwards a workload-appropriate frame through
// each built-in NF type.
func BenchmarkE4PerNFThroughput(b *testing.B) {
	dnsWire, _ := packet.NewDNSQuery(1, "svc.gnf").Append(nil)
	httpFrame := traffic.HTTPRequestFrame(benchPhoneMAC, benchServerMAC, benchPhoneIP, benchServerIP, 41000, "ok.example", "/")
	udpFrame := packet.BuildUDP(benchPhoneMAC, benchServerMAC, benchPhoneIP, benchServerIP, 6000, 7000, make([]byte, 470))
	dnsFrame := packet.BuildUDP(benchPhoneMAC, benchServerMAC, benchPhoneIP, benchServerIP, 6000, 53, dnsWire)

	cases := []struct {
		kind   string
		params nf.Params
		frame  []byte
	}{
		{"firewall", nf.Params{"policy": "accept", "rules": "drop out tcp any any any 23; drop in udp any any any 111"}, udpFrame},
		{"httpfilter", nf.Params{"block_hosts": "ads.example"}, httpFrame},
		{"httpcache", nf.Params{}, httpFrame},
		{"dnslb", nf.Params{"service": "svc.gnf", "backends": "10.1.0.1,10.1.0.2"}, dnsFrame},
		{"ratelimit", nf.Params{"rate_bps": "10000000000", "burst_bytes": "1000000000"}, udpFrame},
		{"nat", nf.Params{"nat_ip": "192.168.100.1"}, udpFrame},
		{"dnscache", nf.Params{}, dnsFrame},
		{"counter", nf.Params{}, udpFrame},
	}
	for _, c := range cases {
		b.Run(c.kind, func(b *testing.B) {
			fn, err := nf.Default.New(c.kind, "bench", c.params)
			if err != nil {
				b.Fatal(err)
			}
			// The working frame is refreshed from a master every
			// iteration: rewriting NFs (NAT) mutate it in place, and
			// re-processing the rewritten frame would mint a new flow
			// mapping per iteration instead of measuring steady state.
			frame := packet.Clone(c.frame)
			b.SetBytes(int64(len(frame)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(frame, c.frame)
				fn.Process(nf.Outbound, frame)
			}
		})
	}
}

// BenchmarkE4SteeredForwarding measures the path E4's chain numbers
// abstract away: client veth -> station switch (flow-cached steering into
// the chain's service ports) -> NF chain -> backhaul -> server sink, end
// to end through the live dataplane. Repeated frames of one flow ride the
// switch's per-flow verdict cache after the first packet.
func BenchmarkE4SteeredForwarding(b *testing.B) {
	sys := benchSystem(b, manager.StrategyStateful, clock.System())
	server := sys.AddServer("web", benchServerMAC, benchServerIP)
	server.Learn(benchPhoneIP, benchPhoneMAC)
	sink := traffic.NewSink(server, 7000, sys.Clock)
	phone := sys.ClientHost("phone")
	phone.Learn(benchServerIP, benchServerMAC)
	spec := manager.ChainSpec{
		Name: "chain",
		Functions: []agent.NFSpec{
			{Kind: "firewall", Name: "fw", Params: nf.Params{"policy": "accept"}},
			{Kind: "counter", Name: "acct"},
		},
	}
	if err := sys.AttachChain("phone", spec); err != nil {
		b.Fatal(err)
	}
	if err := sys.WaitChainOn("st-a", "chain", 10*time.Second); err != nil {
		b.Fatal(err)
	}

	payload := make([]byte, 470) // 512B frames on the wire
	dst := packet.Endpoint{Addr: benchServerIP, Port: 7000}
	b.SetBytes(512)
	b.ResetTimer()
	windowDeadline := time.Now().Add(30 * time.Second)
	for i := 0; i < b.N; i++ {
		// Window in-flight frames below the veth queue depth: sends
		// tail-drop silently under overload and the sink wait below
		// would hang.
		for i-sink.Count() >= 256 {
			if time.Now().After(windowDeadline) {
				b.Fatalf("in-flight window stalled: delivered %d of %d sent", sink.Count(), i)
			}
			time.Sleep(50 * time.Microsecond)
		}
		binary.BigEndian.PutUint64(payload, uint64(i))
		phone.SendUDP(dst, 6000, payload)
	}
	deadline := time.After(30 * time.Second)
	for sink.Count() < b.N {
		select {
		case <-deadline:
			b.Fatalf("delivered %d of %d", sink.Count(), b.N)
		case <-time.After(time.Millisecond):
		}
	}
}

// --- E5: control-plane scalability -----------------------------------------

// BenchmarkE5ControlPlaneScale connects N agents to one manager and
// measures round-trip RPC latency (agent.ping fan-out) while health
// reports stream in the background — the §3 monitoring plane under load.
func BenchmarkE5ControlPlaneScale(b *testing.B) {
	for _, n := range []int{1, 4, 16, 64} {
		b.Run(strconv.Itoa(n)+"-agents", func(b *testing.B) {
			mgr, err := manager.New(clock.System(), "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer mgr.Close()
			clk := clock.NewAutoVirtual()
			repo := container.NewRepository(clk, 0, 0)
			for _, kind := range []string{"firewall"} {
				repo.Push(container.Image{Name: agent.ImageForKind(kind), SizeBytes: 1 << 20, MemoryBytes: 1 << 20})
			}
			handles := make([]*manager.AgentHandle, 0, n)
			for i := 0; i < n; i++ {
				st := fmt.Sprintf("st-%03d", i)
				rt := container.NewRuntime(st, clk, repo)
				sw := newBenchSwitch(st)
				ag := agent.New(topology.StationID(st), clk, rt, sw, 0)
				link, err := agent.Connect(ag, mgr.Addr(), 20*time.Millisecond)
				if err != nil {
					b.Fatal(err)
				}
				defer link.Close()
			}
			deadline := time.After(10 * time.Second)
			for len(mgr.Agents()) != n {
				select {
				case <-deadline:
					b.Fatalf("agents = %d", len(mgr.Agents()))
				case <-time.After(time.Millisecond):
				}
			}
			for _, st := range mgr.Agents() {
				h, _ := mgr.AgentHandleFor(st)
				handles = append(handles, h)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h := handles[i%len(handles)]
				if err := h.Ping(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5SharingDensity deploys the same shareable firewall+counter
// chain spec for 1000 clients on one station, with the shared instance
// pool enabled vs disabled (the paper's one-container-per-client layout).
// Reported metrics: containers actually running, container memory in MiB,
// and modeled virtual time for the 1000 deploys — the deployment-cost gap
// VNF sharing exists to close.
func BenchmarkE5SharingDensity(b *testing.B) {
	const clients = 1000
	for _, sharing := range []bool{true, false} {
		name := "sharing-on"
		if !sharing {
			name = "sharing-off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				clk := clock.NewAutoVirtual()
				repo := container.NewRepository(clk, 0, 0)
				for _, kind := range []string{"firewall", "counter"} {
					repo.Push(container.Image{Name: agent.ImageForKind(kind), SizeBytes: 4 << 20, MemoryBytes: 6 << 20})
				}
				rt := container.NewRuntime("edge", clk, repo)
				var opts []agent.Option
				if !sharing {
					opts = append(opts, agent.WithSharingDisabled())
				}
				ag := agent.New("edge", clk, rt, newBenchSwitch("edge"), 0, opts...)
				start := clk.Now()
				for c := 0; c < clients; c++ {
					id := fmt.Sprintf("c%04d", c)
					ag.AttachClient(topology.ClientID(id),
						packet.MAC{2, 0, 1, 0, byte(c >> 8), byte(c)},
						packet.IP{10, 1, byte(c >> 8), byte(c)}, netem.PortID(100+c))
					if _, err := ag.Deploy(agent.DeploySpec{
						Chain:  "fw-" + id,
						Client: id,
						Functions: []agent.NFSpec{
							{Kind: "firewall", Name: "fw", Params: nf.Params{"policy": "accept"}},
							{Kind: "counter", Name: "acct"},
						},
						Enabled: true,
					}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(rt.List())), "containers")
				b.ReportMetric(float64(rt.MemoryInUse())/(1<<20), "mem_mib")
				b.ReportMetric(float64(clk.Since(start).Milliseconds()), "deploy_ms")
			}
		})
	}
}

// --- E6: migration strategy ablation ---------------------------------------

// BenchmarkE6MigrationStrategies migrates a stateful NAT chain between two
// stations on the virtual clock, ablating cold vs stateful strategies and
// state sizes. Reported metric: modeled downtime per migration.
func BenchmarkE6MigrationStrategies(b *testing.B) {
	for _, strat := range []manager.Strategy{manager.StrategyCold, manager.StrategyStateful} {
		for _, flows := range []int{0, 1000, 16000} {
			b.Run(fmt.Sprintf("%s/%dflows", strat, flows), func(b *testing.B) {
				clk := clock.NewAutoVirtual()
				sys := benchSystem(b, strat, clk)
				spec := manager.ChainSpec{
					Name: "nat-chain",
					Functions: []agent.NFSpec{{
						Kind: "nat", Name: "nat0",
						Params: nf.Params{"nat_ip": "192.168.100.1", "ports": "30000-62000"},
					}},
				}
				if err := sys.AttachChain("phone", spec); err != nil {
					b.Fatal(err)
				}
				if err := sys.WaitChainOn("st-a", "nat-chain", 10*time.Second); err != nil {
					b.Fatal(err)
				}
				// Seed NAT state by processing synthetic flows directly.
				chainFn, err := sys.Agent("st-a").ChainFunction("nat-chain")
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < flows; i++ {
					frame := packet.BuildUDP(benchPhoneMAC, benchServerMAC, benchPhoneIP, benchServerIP,
						uint16(i%60000+1), 53, nil)
					chainFn.Process(nf.Outbound, frame)
				}
				targets := []string{"st-b", "st-a"}
				var downtime, total time.Duration
				var stateBytes int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rep, err := sys.Manager.MigrateChain("phone", "nat-chain", targets[i%2])
					if err != nil {
						b.Fatal(err)
					}
					downtime += rep.Downtime
					total += rep.Total
					stateBytes = rep.StateBytes
				}
				b.ReportMetric(float64(downtime.Milliseconds())/float64(b.N), "downtime_ms")
				b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "total_ms")
				b.ReportMetric(float64(stateBytes)/1024, "state_KiB")
			})
		}
	}
}

// BenchmarkE6LiveMigration compares stop-and-copy (stateful) against the
// pre-copy live pipeline across state sizes. Counter state grows with
// seeded flows until the chain's exported blob reaches the target size, so
// both strategies migrate identical state. Stop-and-copy downtime grows
// linearly with state (checkpoint+restore sit inside the freeze); live
// downtime stays flat — only the residual delta ships frozen.
func BenchmarkE6LiveMigration(b *testing.B) {
	for _, strat := range []manager.Strategy{manager.StrategyStateful, manager.StrategyLive} {
		// 2 MiB is about 44 000 flows; the client ports and the NAT's pool
		// run out short of 4 MiB.
		for _, kib := range []int{64, 512, 2048} {
			b.Run(fmt.Sprintf("%s/%dKiB", strat, kib), func(b *testing.B) {
				clk := clock.NewAutoVirtual()
				sys := benchSystem(b, strat, clk)
				// nat+counter: a stateful, non-shareable chain, so migration
				// exercises the container checkpoint/restore cost model (a
				// shareable chain would ride the pool's costless export).
				spec := manager.ChainSpec{
					Name: "edge-chain",
					Functions: []agent.NFSpec{
						{Kind: "nat", Name: "nat0", Params: nf.Params{"nat_ip": "192.168.88.1", "ports": "2000-63000"}},
						{Kind: "counter", Name: "acct0"},
					},
				}
				if err := sys.AttachChain("phone", spec); err != nil {
					b.Fatal(err)
				}
				if err := sys.WaitChainOn("st-a", "edge-chain", 10*time.Second); err != nil {
					b.Fatal(err)
				}
				chainFn, err := sys.Agent("st-a").ChainFunction("edge-chain")
				if err != nil {
					b.Fatal(err)
				}
				// Seed distinct flows until the exported state reaches the
				// target size.
				target := kib * 1024
				flows := 0
				for {
					state, err := chainFn.ExportState()
					if err != nil {
						b.Fatal(err)
					}
					if len(state) >= target {
						break
					}
					for i := 0; i < 512; i++ {
						n := flows + i
						frame := packet.BuildUDP(benchPhoneMAC, benchServerMAC,
							benchPhoneIP, benchServerIP,
							uint16(n%60000+2001), 53, nil)
						chainFn.Process(nf.Outbound, frame)
					}
					flows += 512
				}
				targets := []string{"st-b", "st-a"}
				var downtime, total time.Duration
				var stateBytes, rounds int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rep, err := sys.Manager.MigrateChain("phone", "edge-chain", targets[i%2])
					if err != nil {
						b.Fatal(err)
					}
					downtime += rep.Downtime
					total += rep.Total
					stateBytes = rep.StateBytes
					rounds += rep.Rounds
				}
				b.ReportMetric(float64(downtime.Microseconds())/float64(b.N)/1000, "downtime_ms")
				b.ReportMetric(float64(total.Microseconds())/float64(b.N)/1000, "total_ms")
				b.ReportMetric(float64(stateBytes)/1024, "state_KiB")
				b.ReportMetric(float64(rounds)/float64(b.N), "rounds")
			})
		}
	}
}

// --- E7: notification pipeline ----------------------------------------------

// BenchmarkE7NotificationPipeline measures NF->Agent->Manager alert
// delivery end to end over the live control plane.
func BenchmarkE7NotificationPipeline(b *testing.B) {
	sys := benchSystem(b, manager.StrategyStateful, clock.System())
	server := sys.AddServer("web", benchServerMAC, benchServerIP)
	server.Learn(benchPhoneIP, benchPhoneMAC)
	sys.ClientHost("phone").Learn(benchServerIP, benchServerMAC)
	spec := manager.ChainSpec{
		Name: "ids",
		Functions: []agent.NFSpec{{
			Kind: "counter", Name: "ids0",
			Params: nf.Params{"signatures": "sig-marker"},
		}},
	}
	if err := sys.AttachChain("phone", spec); err != nil {
		b.Fatal(err)
	}
	if err := sys.WaitChainOn("st-a", "ids", 10*time.Second); err != nil {
		b.Fatal(err)
	}
	phone := sys.ClientHost("phone")
	payload := []byte("sig-marker event payload")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		phone.SendUDP(packet.Endpoint{Addr: benchServerIP, Port: 7100}, 6002, payload)
	}
	deadline := time.After(30 * time.Second)
	for len(sys.Manager.Notifications()) < b.N {
		select {
		case <-deadline:
			b.Fatalf("notifications = %d of %d", len(sys.Manager.Notifications()), b.N)
		case <-time.After(time.Millisecond):
		}
	}
}

// benchCloudSystem is benchSystem plus a GNFC cloud site "nimbus" behind a
// 5 ms WAN.
func benchCloudSystem(b *testing.B, strategy manager.Strategy) *core.System {
	b.Helper()
	sys, err := core.NewSystem(core.Config{
		Clock:          clock.System(),
		Strategy:       strategy,
		ReportInterval: time.Hour,
		Stations: []core.StationConfig{
			{ID: "st-a", Cells: []core.CellConfig{{ID: "cell-a", Center: topology.Point{X: 0}, Radius: 60}}},
			{ID: "st-b", Cells: []core.CellConfig{{ID: "cell-b", Center: topology.Point{X: 100}, Radius: 60}}},
		},
		Clouds: []core.CloudConfig{{ID: "nimbus", WAN: netem.LinkParams{Delay: 5 * time.Millisecond}}},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sys.Close)
	if err := sys.AddClient("phone", benchPhoneMAC, benchPhoneIP); err != nil {
		b.Fatal(err)
	}
	if err := sys.Topo.Attach("phone", "cell-a"); err != nil {
		b.Fatal(err)
	}
	if err := sys.WaitClientAt("phone", "st-a", 10*time.Second); err != nil {
		b.Fatal(err)
	}
	return sys
}

// --- E7: QoS placement ablation --------------------------------------------

// benchQoSAgent is a minimal wire-level station for control-plane-only
// placement benches: it acks every chain RPC and can push a CPU report.
type benchQoSAgent struct {
	peer    *wire.Peer
	station string
}

func newBenchQoSAgent(b *testing.B, mgr *manager.Manager, station string) *benchQoSAgent {
	b.Helper()
	peer, err := wire.Dial(mgr.Addr())
	if err != nil {
		b.Fatal(err)
	}
	ok := func(json.RawMessage) (any, error) { return nil, nil }
	for _, m := range []string{agent.MethodDeploy, agent.MethodRemove, agent.MethodEnable,
		agent.MethodDisable, agent.MethodRestore, agent.MethodSteer, agent.MethodSteerBatch,
		agent.MethodUnsteer, agent.MethodRetarget} {
		peer.Handle(m, ok)
	}
	peer.Handle(agent.MethodCheckpoint, func(json.RawMessage) (any, error) {
		return agent.CheckpointResult{State: []byte("blob")}, nil
	})
	go peer.Run()
	if err := peer.Call(agent.MethodRegister, agent.RegisterSpec{Station: station}, nil); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { peer.Close() })
	return &benchQoSAgent{peer: peer, station: station}
}

func (a *benchQoSAgent) report(cpu float64) {
	a.peer.Notify(agent.MethodReport, agent.Report{
		Station: a.station,
		Usage:   metrics.ResourceUsage{CPUPercent: cpu},
	})
}

// BenchmarkE7QoSPlacement ablates the placement rule's RTT term on one
// mobility trace: a client circles a six-station metro ring (5ms hops), and
// at every dwell its station is drained for maintenance, forcing the rule to
// re-place the chain. The rows differ only in whether the manager is given
// the ring: without it every RTT is unknown and the rule ranks by load,
// chasing the idle station wherever it sits; with it the RTT term keeps the
// chain one hop away. Reported metrics: mean predicted client<->chain RTT
// per re-placement, and control-plane migrations per trace.
func BenchmarkE7QoSPlacement(b *testing.B) {
	stations := []string{"st-0", "st-1", "st-2", "st-3", "st-4", "st-5"}
	ids := make([]topology.StationID, len(stations))
	for i, st := range stations {
		ids[i] = topology.StationID(st)
	}
	// One idle box far around the ring; the rest moderately loaded.
	loads := map[string]float64{
		"st-0": 50, "st-1": 40, "st-2": 45, "st-3": 2, "st-4": 45, "st-5": 40,
	}
	for _, withTopology := range []bool{false, true} {
		name := "no-topology"
		if withTopology {
			name = "topology"
		}
		b.Run(name, func(b *testing.B) {
			var sumRTT time.Duration
			picks, migrations := 0, 0
			for i := 0; i < b.N; i++ {
				mgr, err := manager.New(clock.System(), "127.0.0.1:0",
					manager.WithStrategy(manager.StrategyCold))
				if err != nil {
					b.Fatal(err)
				}
				ring := topology.Ring(ids, 5*time.Millisecond, 1_000_000_000)
				if withTopology {
					mgr.SetTopology(ring)
				}
				agents := make(map[string]*benchQoSAgent, len(stations))
				for _, st := range stations {
					agents[st] = newBenchQoSAgent(b, mgr, st)
					agents[st].report(loads[st])
				}
				deadline := time.After(10 * time.Second)
				for {
					fresh := 0
					for _, si := range mgr.StationInfos() {
						if !si.Stale {
							fresh++
						}
					}
					if fresh == len(stations) {
						break
					}
					select {
					case <-deadline:
						b.Fatalf("only %d stations reported", fresh)
					case <-time.After(200 * time.Microsecond):
					}
				}
				if err := agents["st-0"].peer.Call(agent.MethodClientEvent,
					agent.ClientEvent{Station: "st-0", Client: "phone", Connected: true}, nil); err != nil {
					b.Fatal(err)
				}
				mgr.WaitIdle()
				if err := mgr.AttachChain("phone", manager.ChainSpec{
					Name:      "chain",
					Functions: []agent.NFSpec{{Kind: "counter", Name: "acct"}},
				}); err != nil {
					b.Fatal(err)
				}
				for s, cur := range stations {
					if s > 0 {
						// Handoff: the chain follows the client to cur.
						if err := agents[cur].peer.Call(agent.MethodClientEvent,
							agent.ClientEvent{Station: cur, Client: "phone", Connected: true}, nil); err != nil {
							b.Fatal(err)
						}
						mgr.WaitIdle()
					}
					// Maintenance drain: the rule picks the chain's refuge.
					reports, err := mgr.EvacuateStation(cur)
					if err != nil {
						b.Fatal(err)
					}
					if len(reports) != 1 || reports[0].Err != "" {
						b.Fatalf("evacuation reports = %+v", reports)
					}
					rtt, ok := ring.RTT(topology.StationID(cur), topology.StationID(reports[0].To))
					if !ok {
						b.Fatalf("no path %s -> %s", cur, reports[0].To)
					}
					sumRTT += rtt
					picks++
				}
				migrations += len(mgr.Migrations())
				mgr.Close()
			}
			b.ReportMetric(float64(sumRTT.Microseconds())/float64(picks)/1000, "ms_chain_rtt")
			b.ReportMetric(float64(migrations)/float64(b.N), "migrations")
		})
	}
}

// BenchmarkE8OffloadAblation — experiment E8 (GNFC, reference [2] of the
// paper): edge-hosted vs cloud-offloaded chains. Roaming an offloaded
// client is a steering update (no chain moves, ~0 downtime); the price is
// a WAN round-trip on every packet. Four sub-benches report per-roam
// downtime and per-request RTT for both placements.
func BenchmarkE8OffloadAblation(b *testing.B) {
	spec := manager.ChainSpec{
		Name: "chain",
		Functions: []agent.NFSpec{
			{Kind: "firewall", Name: "fw", Params: nf.Params{"policy": "accept"}},
			{Kind: "counter", Name: "acct"},
		},
	}
	roam := func(b *testing.B, sys *core.System, offloaded bool) {
		cells := []topology.CellID{"cell-b", "cell-a"}
		stations := []topology.StationID{"st-b", "st-a"}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sys.Topo.Attach("phone", cells[i%2]); err != nil {
				b.Fatal(err)
			}
			if err := sys.WaitClientAt("phone", stations[i%2], 10*time.Second); err != nil {
				b.Fatal(err)
			}
			if !offloaded {
				if err := sys.WaitChainOn(stations[i%2], "chain", 10*time.Second); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		var downtime time.Duration
		n := 0
		for _, m := range sys.Manager.Migrations() {
			if m.Err == "" && (m.Strategy == manager.StrategySteer) == offloaded {
				downtime += m.Downtime
				n++
			}
		}
		if n > 0 {
			b.ReportMetric(float64(downtime.Microseconds())/float64(n)/1000, "downtime_ms/roam")
		}
	}
	rtt := func(b *testing.B, sys *core.System) {
		phone := sys.ClientHost("phone")
		phone.Learn(benchServerIP, benchServerMAC)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ch, err := phone.Ping(benchServerIP, 7, uint16(i))
			if err != nil {
				b.Fatal(err)
			}
			select {
			case <-ch:
			case <-time.After(5 * time.Second):
				b.Fatal("ping lost")
			}
		}
	}
	setup := func(b *testing.B, offload bool) *core.System {
		sys := benchCloudSystem(b, manager.StrategyStateful)
		server := sys.AddServer("web", benchServerMAC, benchServerIP)
		server.Learn(benchPhoneIP, benchPhoneMAC)
		if err := sys.AttachChain("phone", spec); err != nil {
			b.Fatal(err)
		}
		if err := sys.WaitChainOn("st-a", "chain", 10*time.Second); err != nil {
			b.Fatal(err)
		}
		if offload {
			if err := sys.OffloadClient("phone", "nimbus"); err != nil {
				b.Fatal(err)
			}
		}
		return sys
	}

	b.Run("roam/edge", func(b *testing.B) { roam(b, setup(b, false), false) })
	b.Run("roam/offloaded", func(b *testing.B) { roam(b, setup(b, true), true) })
	b.Run("rtt/edge", func(b *testing.B) { rtt(b, setup(b, false)) })
	b.Run("rtt/offloaded", func(b *testing.B) { rtt(b, setup(b, true)) })
}

// --- E8 addendum: batched dataplane ----------------------------------------

// newE8Switch builds a station switch serving 128 clients' worth of
// steering entries — none matching the benchmark flow, so a verdict miss
// pays the full scan — plus one InPort rule redirecting the bench flow to
// a service port. The egress pair is closed: Send is an O(1) recycle, so
// the benchmark prices the verdict pipeline itself rather than delivery
// goroutines (the same trick BenchmarkSwitchForwardParallel uses with
// peerless endpoints).
func newE8Switch() (*netem.Switch, []byte) {
	sw := netem.NewSwitch("e8")
	ingress, _ := netem.NewVethPair("e8-in", "e8-in-peer")
	egress, _ := netem.NewVethPair("e8-out", "e8-out-peer")
	sw.Attach(1, ingress)
	sw.AttachService(100, egress)
	egress.Close()
	proto := uint8(packet.ProtoUDP)
	for i := 0; i < 128; i++ {
		ip := packet.IP{10, 0, 1, byte(i)}
		port := uint16(7000 + i)
		sw.AddRule(netem.Rule{Priority: 10,
			Match:  netem.Match{Proto: &proto, SrcIP: &ip, DstPort: &port},
			Action: netem.ActionRedirect, OutPort: netem.PortID(2)})
	}
	in := netem.PortID(1)
	sw.AddRule(netem.Rule{Priority: 20, Match: netem.Match{InPort: &in},
		Action: netem.ActionRedirect, OutPort: netem.PortID(100)})
	tmpl := packet.BuildUDP(benchPhoneMAC, benchServerMAC, benchPhoneIP, benchServerIP,
		6000, 7000, make([]byte, 470))
	return sw, tmpl
}

// BenchmarkE8BatchedDataplane prices one frame through the forwarding
// pipeline against a 128-entry steering table: per-frame Inject vs
// InjectBatch at several batch widths. Every frame is a pooled buffer
// stamped from a template, so allocs/op is allocs per frame — zero in
// steady state on both paths — and the run-detection fast path gets
// same-flow batches, its intended workload. frames/sec is the headline
// metric; the acceptance bar is batched ≥ 3x per-frame.
func BenchmarkE8BatchedDataplane(b *testing.B) {
	inject := func(sw *netem.Switch, tmpl []byte) {
		f := packet.BorrowFrame()[:len(tmpl)]
		copy(f, tmpl)
		sw.Inject(1, f)
	}
	b.Run("per-frame", func(b *testing.B) {
		sw, tmpl := newE8Switch()
		inject(sw, tmpl) // warm the flow cache and the frame pool
		b.SetBytes(int64(len(tmpl)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			inject(sw, tmpl)
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/sec")
	})
	for _, width := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("batched-%d", width), func(b *testing.B) {
			sw, tmpl := newE8Switch()
			inject(sw, tmpl)
			batch := make([][]byte, width)
			b.SetBytes(int64(len(tmpl)))
			b.ReportAllocs()
			b.ResetTimer()
			for sent := 0; sent < b.N; sent += width {
				n := width
				if left := b.N - sent; left < n {
					n = left
				}
				// InjectBatch consumes the frames; the slice is ours
				// again once it returns.
				packet.BorrowFrames(batch[:n])
				for j := 0; j < n; j++ {
					batch[j] = append(batch[j], tmpl...)
				}
				sw.InjectBatch(1, batch[:n])
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/sec")
		})
	}
}

// BenchmarkE9FailoverRecovery — station failure recovery: wall time from a
// station crash until the Manager has revived every chain it hosted on a
// survivor, as a function of the number of chains lost.
func BenchmarkE9FailoverRecovery(b *testing.B) {
	for _, chains := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("chains=%d", chains), func(b *testing.B) {
			var recovered time.Duration
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys := benchSystem(b, manager.StrategyStateful, clock.System())
				sys.Manager.EnableFailover(0)
				for c := 0; c < chains; c++ {
					spec := manager.ChainSpec{
						Name:      fmt.Sprintf("chain-%d", c),
						Functions: []agent.NFSpec{{Kind: "firewall", Name: "fw", Params: nf.Params{"policy": "accept"}}},
					}
					if err := sys.AttachChain("phone", spec); err != nil {
						b.Fatal(err)
					}
				}
				base := len(sys.Manager.Failovers())
				b.StartTimer()
				start := time.Now()
				if err := sys.KillStation("st-a"); err != nil {
					b.Fatal(err)
				}
				deadline := time.After(30 * time.Second)
				for len(sys.Manager.Failovers())-base < chains {
					select {
					case <-deadline:
						b.Fatalf("failovers = %d of %d", len(sys.Manager.Failovers())-base, chains)
					case <-time.After(200 * time.Microsecond):
					}
				}
				recovered += time.Since(start)
				b.StopTimer()
				for _, rep := range sys.Manager.Failovers() {
					if rep.Err != "" {
						b.Fatalf("failover error: %+v", rep)
					}
				}
				sys.Close()
			}
			b.ReportMetric(float64(recovered.Microseconds())/float64(b.N)/1000, "recovery_ms")
		})
	}
}

// BenchmarkE9TraceOverhead — observability addendum: prices the telemetry
// plane's only dataplane hook, the frame sampler, on the E8 verdict
// pipeline. sampling-off is the baseline (a nil atomic pointer load per
// frame); sampling-1pct arms EnableSampling(100), the default operating
// point. The acceptance bar: zero allocations per frame on both paths and
// < 5% frames/sec regression with sampling armed.
func BenchmarkE9TraceOverhead(b *testing.B) {
	run := func(b *testing.B, every int) {
		sw, tmpl := newE8Switch()
		if every > 0 {
			sw.EnableSampling(every)
		}
		inject := func() {
			f := packet.BorrowFrame()[:len(tmpl)]
			copy(f, tmpl)
			sw.Inject(1, f)
		}
		inject() // warm the flow cache and the frame pool
		b.SetBytes(int64(len(tmpl)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			inject()
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/sec")
		if every > 0 {
			if want := uint64(b.N+1) / uint64(every); sw.SampledFrames() < want {
				b.Fatalf("sampler slept through the run: %d sampled, want >= %d", sw.SampledFrames(), want)
			}
		}
	}
	b.Run("sampling-off", func(b *testing.B) { run(b, 0) })
	b.Run("sampling-1pct", func(b *testing.B) { run(b, 100) })
}

// --- E10: handoff storm -----------------------------------------------------

// newBenchStormAgent is a wire-level station for handoff-storm benches:
// every chain RPC acks after a fixed service delay, modeling the agent-side
// work (container ops, rule installs) that the parallel pipeline overlaps.
func newBenchStormAgent(b *testing.B, mgr *manager.Manager, station string, delay time.Duration) *benchQoSAgent {
	b.Helper()
	peer, err := wire.Dial(mgr.Addr())
	if err != nil {
		b.Fatal(err)
	}
	slow := func(json.RawMessage) (any, error) {
		time.Sleep(delay)
		return nil, nil
	}
	for _, m := range []string{agent.MethodDeploy, agent.MethodRemove, agent.MethodEnable,
		agent.MethodDisable, agent.MethodRestore,
		agent.MethodSteer, agent.MethodSteerBatch, agent.MethodUnsteer} {
		peer.Handle(m, slow)
	}
	peer.Handle(agent.MethodCheckpoint, func(json.RawMessage) (any, error) {
		time.Sleep(delay)
		return agent.CheckpointResult{State: []byte("blob")}, nil
	})
	go peer.Run()
	if err := peer.Call(agent.MethodRegister, agent.RegisterSpec{Station: station}, nil); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { peer.Close() })
	return &benchQoSAgent{peer: peer, station: station}
}

// BenchmarkE10HandoffStorm — the bus scenario at control-plane scale: 2k
// clients, each with one stateful chain on st-a, all hand off to st-b inside
// one window. "serial" pins the migration pipeline to one worker — the
// pre-shard manager's effective behaviour, since every reconcile serialized
// on the global mutex — while "parallel" runs the default worker pool with
// per-station admission and the overlapped RPC chain. Reported metrics:
// storm convergence wall time, handoffs/sec, and p99 handoff-completion
// latency from the handoff.latency_ms histogram (queue wait included).
func BenchmarkE10HandoffStorm(b *testing.B) {
	const (
		clients  = 2000
		rpcDelay = 200 * time.Microsecond
	)
	run := func(b *testing.B, opts ...manager.Option) {
		var (
			totalStorm time.Duration
			p99        float64
		)
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			mgr, err := manager.New(clock.System(), "127.0.0.1:0",
				append([]manager.Option{manager.WithStrategy(manager.StrategyStateful)}, opts...)...)
			if err != nil {
				b.Fatal(err)
			}
			src := newBenchStormAgent(b, mgr, "st-a", rpcDelay)
			dst := newBenchStormAgent(b, mgr, "st-b", rpcDelay)
			_ = dst
			names := make([]string, clients)
			for j := range names {
				names[j] = fmt.Sprintf("c%04d", j)
				if err := src.peer.Call(agent.MethodClientEvent,
					agent.ClientEvent{Station: "st-a", Client: names[j], Connected: true}, nil); err != nil {
					b.Fatal(err)
				}
			}
			mgr.WaitIdle()
			for _, c := range names {
				if err := mgr.AttachChain(c, manager.ChainSpec{
					Name:      "chain-" + c,
					Functions: []agent.NFSpec{{Kind: "counter", Name: "acct"}},
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()

			start := time.Now()
			for _, c := range names {
				if err := dst.peer.Call(agent.MethodClientEvent,
					agent.ClientEvent{Station: "st-b", Client: c, Connected: true}, nil); err != nil {
					b.Fatal(err)
				}
			}
			mgr.WaitIdle()
			storm := time.Since(start)

			b.StopTimer()
			done := 0
			for _, rep := range mgr.Migrations() {
				if rep.To == "st-b" && rep.Err == "" {
					done++
				}
			}
			if done != clients {
				b.Fatalf("lost migrations: %d/%d completed", done, clients)
			}
			totalStorm += storm
			p99 = mgr.MetricsSnapshot().Histograms["handoff.latency_ms"].P99
			mgr.Close()
			b.StartTimer()
		}
		mean := totalStorm / time.Duration(b.N)
		b.ReportMetric(mean.Seconds()*1000, "ms_storm")
		b.ReportMetric(float64(clients)/mean.Seconds(), "handoffs/sec")
		b.ReportMetric(p99, "ms_p99_handoff")
	}
	b.Run("serial", func(b *testing.B) { run(b, manager.WithHandoffWorkers(1)) })
	b.Run("parallel", func(b *testing.B) { run(b) })
}

// --- E11: split-chain migration ---------------------------------------------

// BenchmarkE11SplitChain prices roaming for the same stateful chain
// deployed two ways on the same two-station trace: whole-chain (no
// affinities — every handoff ships the full firewall+nat+counter state)
// vs split-chain (the firewall head is near-client, the nat+counter
// aggregation segment anchors on the hub and never moves — each handoff
// ships only the head's state over the same control plane). Both
// variants seed the identical NAT flow table before roaming, so the gap
// in state_KiB/roam and downtime_ms/roam is purely the partitioning.
func BenchmarkE11SplitChain(b *testing.B) {
	const seedFlows = 8000
	mkSpec := func(split bool) manager.ChainSpec {
		aff := func(tag string) string {
			if split {
				return tag
			}
			return ""
		}
		return manager.ChainSpec{
			Name: "edgepath",
			Functions: []agent.NFSpec{
				{Kind: "firewall", Name: "fw", Params: nf.Params{"policy": "accept"}, Affinity: aff("near-client")},
				{Kind: "nat", Name: "xlate", Params: nf.Params{"nat_ip": "192.168.90.1", "ports": "2000-63000"}, Affinity: aff("aggregate")},
				{Kind: "counter", Name: "acct"},
			},
		}
	}
	run := func(b *testing.B, split bool) {
		// Two stations joined by a modeled 3ms link, so hub election and
		// the inter-segment tunnel path are live (hub ties break to st-a).
		graph := topology.NewGraph()
		graph.SetLink(topology.Link{A: "st-a", B: "st-b", Delay: 3 * time.Millisecond})
		sys, err := core.NewSystem(core.Config{
			Clock:          clock.System(),
			Strategy:       manager.StrategyStateful,
			ReportInterval: time.Hour,
			Topology:       graph,
			Stations: []core.StationConfig{
				{ID: "st-a", Cells: []core.CellConfig{{ID: "cell-a", Center: topology.Point{X: 0}, Radius: 60}}},
				{ID: "st-b", Cells: []core.CellConfig{{ID: "cell-b", Center: topology.Point{X: 100}, Radius: 60}}},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(sys.Close)
		if err := sys.AddClient("phone", benchPhoneMAC, benchPhoneIP); err != nil {
			b.Fatal(err)
		}
		if err := sys.Topo.Attach("phone", "cell-a"); err != nil {
			b.Fatal(err)
		}
		if err := sys.WaitClientAt("phone", "st-a", 10*time.Second); err != nil {
			b.Fatal(err)
		}
		if err := sys.AttachChain("phone", mkSpec(split)); err != nil {
			b.Fatal(err)
		}
		if err := sys.WaitChainOn("st-a", "edgepath", 10*time.Second); err != nil {
			b.Fatal(err)
		}
		// Seed the NAT flow table where it lives: the anchored segment for
		// the split layout, the single deployment otherwise. Both variants
		// carry the same state; only its placement differs.
		stateful := "edgepath"
		if split {
			stateful = agent.SegmentDeployName("edgepath", 1)
		}
		chainFn, err := sys.Agent("st-a").ChainFunction(stateful)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < seedFlows; i++ {
			frame := packet.BuildUDP(benchPhoneMAC, benchServerMAC, benchPhoneIP, benchServerIP,
				uint16(i%60000+2001), 53, nil)
			chainFn.Process(nf.Outbound, frame)
		}

		cells := []topology.CellID{"cell-b", "cell-a"}
		stations := []topology.StationID{"st-b", "st-a"}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sys.Topo.Attach("phone", cells[i%2]); err != nil {
				b.Fatal(err)
			}
			if err := sys.WaitClientAt("phone", stations[i%2], 10*time.Second); err != nil {
				b.Fatal(err)
			}
			if err := sys.WaitChainOn(stations[i%2], "edgepath", 10*time.Second); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()

		var moved int
		var downtime time.Duration
		roams := 0
		for _, m := range sys.Manager.Migrations() {
			if m.Err != "" {
				b.Fatalf("migration failed: %+v", m)
			}
			if m.Chain != "edgepath" {
				b.Fatalf("unexpected migration of %q: the anchored segment must never move", m.Chain)
			}
			moved += m.StateBytes
			downtime += m.Downtime
			roams++
		}
		if roams != b.N {
			b.Fatalf("migrations = %d, want %d", roams, b.N)
		}
		b.ReportMetric(float64(moved)/float64(b.N)/1024, "state_KiB/roam")
		b.ReportMetric(float64(downtime.Microseconds())/float64(b.N)/1000, "downtime_ms/roam")
	}
	b.Run("whole-chain", func(b *testing.B) { run(b, false) })
	b.Run("split-chain", func(b *testing.B) { run(b, true) })
}
