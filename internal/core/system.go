// Package core is GNF's top-level façade: it assembles a complete edge
// deployment — the backhaul network, per-station software switches and
// container runtimes, Agents connected to a Manager over real TCP, the
// central NF image repository, and mobile clients — from one Config. It
// owns the "physical" wiring that the paper's testbed provided (home
// routers, WiFi association, Ethernet backhaul) and turns topology
// association events into the dataplane re-homing plus Agent notifications
// that drive function roaming.
//
// Layout (compare Fig. 2 of the paper):
//
//	client host ── veth ── [station switch] ── veth ── [backhaul switch] ── servers
//	                         │        │
//	                     chain-in  chain-out        (per deployed chain)
//	                         └─[ChainHost: NF chain in containers]┘
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"gnf/internal/agent"
	"gnf/internal/clock"
	"gnf/internal/container"
	"gnf/internal/manager"
	"gnf/internal/netem"
	"gnf/internal/packet"
	"gnf/internal/topology"

	// Every System can instantiate the built-in NF kinds.
	"gnf/internal/nf/builtin"
)

// Errors returned by the system.
var (
	ErrUnknownClient = errors.New("core: unknown client")
	ErrTimeout       = errors.New("core: condition not reached in time")
)

// CellConfig describes one coverage cell of a station.
type CellConfig struct {
	ID     topology.CellID
	Center topology.Point
	Radius float64
}

// StationConfig describes one GNF station.
type StationConfig struct {
	ID topology.StationID
	// MemoryBytes caps the station's container memory (0 = unlimited).
	MemoryBytes uint64
	Position    topology.Point
	Cells       []CellConfig
}

// Config assembles a System.
type Config struct {
	Clock    clock.Clock // default: system clock
	Stations []StationConfig
	// Strategy picks the roaming migration strategy (default stateful).
	Strategy manager.Strategy
	// RepoRateBps is the image repository's download rate (default 100 Mbit/s).
	RepoRateBps int64
	// RepoRTT is the pull setup latency (default 5ms).
	RepoRTT time.Duration
	// ReportInterval is the agent health-report period (default 1s; these
	// ride real TCP so they always use wall time).
	ReportInterval time.Duration
	// AccessLink shapes client<->station links (default ideal).
	AccessLink netem.LinkParams
	// BackhaulLink shapes station<->backhaul links (default ideal).
	BackhaulLink netem.LinkParams
	// Images overrides the default NF image catalogue pushed to the repo.
	Images []container.Image
	// Clouds attaches GNFC cloud sites, provisioned after every station
	// so each site starts fully tunnelled.
	Clouds []CloudConfig
	// Topology is the modeled station graph: link delays and rates between
	// stations. When set, every edge-to-edge link is instantiated as a
	// shaped netem veth between the two station switches and registered as
	// a tunnel (the detour fabric remote deployments ride), and the
	// Manager receives the graph for RTT-aware placement. The backhaul
	// still carries ordinary client->chain->server traffic: the graph is
	// the placement model, not a replacement dataplane. Cloud nodes in the
	// graph are informational — AddCloudSite wires their WAN tunnels
	// itself.
	Topology *topology.Graph
}

// stationNode is one station's physical assets.
type stationNode struct {
	cfg    StationConfig
	sw     *netem.Switch
	rt     *container.Runtime
	ag     *agent.Agent
	link   *agent.Link
	uplink *netem.Endpoint // station side of the backhaul veth
	cloud  bool            // GNFC cloud site
	wan    netem.LinkParams

	mu       sync.Mutex
	nextPort netem.PortID
}

func (sn *stationNode) allocPort() netem.PortID {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	p := sn.nextPort
	sn.nextPort++
	return p
}

// clientNode is one mobile client's dataplane presence.
type clientNode struct {
	id   topology.ClientID
	mac  packet.MAC
	ip   packet.IP
	host *netem.Host

	mu      sync.Mutex
	station topology.StationID
	ep      *netem.Endpoint // client side of the current access veth
	swSide  *netem.Endpoint
	port    netem.PortID
}

// System is a running GNF deployment.
type System struct {
	Clock   clock.Clock
	Topo    *topology.Topology
	Manager *manager.Manager
	Repo    *container.Repository

	cfg      Config
	backbone *netem.Switch
	tun      tunnelRegistry

	mu           sync.Mutex
	stations     map[topology.StationID]*stationNode
	clients      map[topology.ClientID]*clientNode
	nextCorePort netem.PortID
	closed       bool
}

// DefaultImages is the catalogue of NF images the repository serves, one
// per registered NF kind, with container-class sizes.
func DefaultImages() []container.Image {
	kinds := builtin.Kinds()
	imgs := make([]container.Image, 0, len(kinds))
	for _, k := range kinds {
		imgs = append(imgs, container.Image{
			Name:        agent.ImageForKind(k),
			SizeBytes:   4 << 20,
			MemoryBytes: 6 << 20,
			CPUPercent:  2,
		})
	}
	return imgs
}

// NewVirtualSystem brings a deployment up on a fresh auto-advancing
// virtual clock and returns it alongside the System: every modeled cost
// (container boot, image pull, link delay, migration downtime) becomes a
// deterministic jump of simulated time with zero wall delay. Unless the
// config says otherwise, periodic agent health reports are effectively
// disabled — they ride real TCP timers and would inject wall-clock
// nondeterminism into simulations.
func NewVirtualSystem(cfg Config) (*System, *clock.Virtual, error) {
	vc := clock.NewAutoVirtual()
	cfg.Clock = vc
	if cfg.ReportInterval == 0 {
		cfg.ReportInterval = time.Hour
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		return nil, nil, err
	}
	return sys, vc, nil
}

// NewSystem brings a deployment up: repository, manager, stations (switch
// + runtime + agent, each connected over TCP), topology and wiring hooks.
func NewSystem(cfg Config) (*System, error) {
	if cfg.Clock == nil {
		cfg.Clock = clock.System()
	}
	if cfg.RepoRateBps == 0 {
		cfg.RepoRateBps = 100_000_000
	}
	if cfg.RepoRTT == 0 {
		cfg.RepoRTT = 5 * time.Millisecond
	}
	if cfg.Strategy == "" {
		cfg.Strategy = manager.StrategyStateful
	}
	images := cfg.Images
	if images == nil {
		images = DefaultImages()
	}

	repo := container.NewRepository(cfg.Clock, cfg.RepoRateBps, cfg.RepoRTT)
	for _, img := range images {
		repo.Push(img)
	}
	mgr, err := manager.New(cfg.Clock, "127.0.0.1:0", manager.WithStrategy(cfg.Strategy))
	if err != nil {
		return nil, err
	}
	if cfg.Topology != nil {
		mgr.SetTopology(cfg.Topology)
	}
	s := &System{
		Clock:        cfg.Clock,
		Topo:         topology.New(),
		Manager:      mgr,
		Repo:         repo,
		cfg:          cfg,
		backbone:     netem.NewSwitch("backhaul"),
		stations:     make(map[topology.StationID]*stationNode),
		clients:      make(map[topology.ClientID]*clientNode),
		nextCorePort: 1,
	}
	s.tun.links = make(map[tunnelPair]*tunnelEnds)
	// Split chains ask the manager for inter-segment tunnels on demand;
	// the registry makes the request idempotent with the pre-wired fabric.
	mgr.SetTunnelProvisioner(func(a, b string) error {
		return s.EnsureTunnel(topology.StationID(a), topology.StationID(b))
	})

	for _, sc := range cfg.Stations {
		if err := s.addStation(sc); err != nil {
			mgr.Close()
			return nil, err
		}
	}
	for _, cc := range cfg.Clouds {
		if err := s.AddCloudSite(cc); err != nil {
			mgr.Close()
			return nil, err
		}
	}
	if cfg.Topology != nil {
		s.wireTopologyLinks()
	}
	s.Topo.OnAssociation(s.onAssociation)
	return s, nil
}

// wireTopologyLinks instantiates the modeled inter-station links as
// delay/rate-shaped veths between the station switches, attached as
// service ports (no MAC learning, excluded from flooding — the L2
// topology stays loop-free) and registered with both agents as tunnels,
// so remote deployments can detour edge-to-edge with the declared link
// cost. No traffic crosses them until something steers a detour; they do
// not displace the backhaul for ordinary client traffic. Links touching
// cloud nodes are skipped: AddCloudSite already tunnels every edge
// station to each site with the site's WAN shape.
func (s *System) wireTopologyLinks() {
	for _, l := range s.cfg.Topology.Links() {
		s.mu.Lock()
		a, b := s.stations[l.A], s.stations[l.B]
		s.mu.Unlock()
		if a == nil || b == nil || a.cloud || b.cloud {
			continue
		}
		s.EnsureTunnel(l.A, l.B)
	}
}

// addStation builds one station's assets and connects its agent.
func (s *System) addStation(sc StationConfig) error {
	if err := s.Topo.AddStation(topology.Station{
		ID:          sc.ID,
		MemoryBytes: sc.MemoryBytes,
		Position:    sc.Position,
	}); err != nil {
		return err
	}
	for _, cc := range sc.Cells {
		if err := s.Topo.AddCell(topology.Cell{
			ID: cc.ID, Station: sc.ID, Center: cc.Center, Radius: cc.Radius,
		}); err != nil {
			return err
		}
	}
	sw := netem.NewSwitch(string(sc.ID))
	var opts []container.RuntimeOption
	if sc.MemoryBytes > 0 {
		opts = append(opts, container.WithCapacity(sc.MemoryBytes))
	}
	rt := container.NewRuntime(string(sc.ID), s.Clock, s.Repo, opts...)

	// Backhaul wiring: station port 0 is the uplink.
	stSide, coreSide := netem.NewVethPair(
		string(sc.ID)+"-up", string(sc.ID)+"-core",
		netem.WithClock(s.Clock), netem.WithLink(s.cfg.BackhaulLink),
	)
	const uplinkPort = netem.PortID(0)
	sw.Attach(uplinkPort, stSide)
	s.mu.Lock()
	corePort := s.nextCorePort
	s.nextCorePort++
	s.mu.Unlock()
	s.backbone.Attach(corePort, coreSide)

	ag := agent.New(sc.ID, s.Clock, rt, sw, uplinkPort)
	link, err := agent.Connect(ag, s.Manager.Addr(), s.cfg.ReportInterval)
	if err != nil {
		return err
	}
	node := &stationNode{
		cfg: sc, sw: sw, rt: rt, ag: ag, link: link, uplink: stSide, nextPort: 1,
	}
	s.mu.Lock()
	s.stations[sc.ID] = node
	clouds := make([]topology.StationID, 0, len(s.stations))
	for id, sn := range s.stations {
		if sn.cloud {
			clouds = append(clouds, id)
		}
	}
	s.mu.Unlock()
	// Late-added stations tunnel to every existing cloud site.
	for _, cl := range clouds {
		if err := s.EnsureTunnel(sc.ID, cl); err != nil {
			return err
		}
	}
	return nil
}

// AddClient registers a mobile client (unassociated until the first
// Attach/MoveClient).
func (s *System) AddClient(id topology.ClientID, mac packet.MAC, ip packet.IP) error {
	if err := s.Topo.AddClient(topology.Client{ID: id, MAC: mac, IP: ip}); err != nil {
		return err
	}
	s.Manager.RegisterClient(string(id))
	s.mu.Lock()
	s.clients[id] = &clientNode{id: id, mac: mac, ip: ip}
	s.mu.Unlock()
	return nil
}

// AddServer attaches a fixed host (e.g. a DNS resolver or web server) to
// the backhaul network and returns it.
func (s *System) AddServer(name string, mac packet.MAC, ip packet.IP) *netem.Host {
	side, coreSide := netem.NewVethPair(name, name+"-core",
		netem.WithClock(s.Clock), netem.WithLink(s.cfg.BackhaulLink))
	s.mu.Lock()
	port := s.nextCorePort
	s.nextCorePort++
	s.mu.Unlock()
	s.backbone.Attach(port, coreSide)
	return netem.NewHost(mac, ip, side)
}

// ClientHost returns the client's traffic endpoint (nil until the client
// has associated at least once).
func (s *System) ClientHost(id topology.ClientID) *netem.Host {
	s.mu.Lock()
	defer s.mu.Unlock()
	cn, ok := s.clients[id]
	if !ok {
		return nil
	}
	return cn.host
}

// Agent returns a station's agent (local inspection in tests/benches).
func (s *System) Agent(id topology.StationID) *agent.Agent {
	s.mu.Lock()
	defer s.mu.Unlock()
	sn, ok := s.stations[id]
	if !ok {
		return nil
	}
	return sn.ag
}

// Runtime returns a station's container runtime.
func (s *System) Runtime(id topology.StationID) *container.Runtime {
	s.mu.Lock()
	defer s.mu.Unlock()
	sn, ok := s.stations[id]
	if !ok {
		return nil
	}
	return sn.rt
}

// onAssociation performs the physical handoff for an association change:
// tear down the old access link, wire the new one, inform both agents.
func (s *System) onAssociation(ev topology.AssociationEvent) {
	s.mu.Lock()
	cn, ok := s.clients[ev.Client]
	s.mu.Unlock()
	if !ok {
		return
	}
	// Break-before-make, as 802.11 roaming behaves. The client stops
	// transmitting in the old cell only at the break, and what it already
	// put on the air reaches the old station before its port goes.
	if ev.From != "" {
		if st, err := s.Topo.StationForCell(ev.From); err == nil {
			s.mu.Lock()
			sn := s.stations[st.ID]
			s.mu.Unlock()
			if sn != nil {
				sn.ag.DetachClient(ev.Client)
				cn.mu.Lock()
				if cn.swSide != nil {
					cn.ep.Drain()
					sn.sw.Detach(cn.port)
					cn.swSide.Close()
					cn.swSide, cn.ep = nil, nil
				}
				cn.station = ""
				cn.mu.Unlock()
			}
		}
	}
	if ev.To == "" {
		return
	}
	st, err := s.Topo.StationForCell(ev.To)
	if err != nil {
		return
	}
	s.mu.Lock()
	sn := s.stations[st.ID]
	s.mu.Unlock()
	if sn == nil {
		return
	}
	clSide, swSide := netem.NewVethPair(
		string(ev.Client)+"-wl", string(ev.Client)+"-ap",
		netem.WithClock(s.Clock), netem.WithLink(s.cfg.AccessLink),
	)
	port := sn.allocPort()
	sn.sw.Attach(port, swSide)
	cn.mu.Lock()
	if cn.host == nil {
		cn.host = netem.NewHost(cn.mac, cn.ip, clSide)
	} else {
		cn.host.Rebind(clSide)
	}
	cn.ep, cn.swSide, cn.port, cn.station = clSide, swSide, port, st.ID
	cn.mu.Unlock()
	// The agent learns the client last, so steering rules always point at
	// a live port; this also triggers the manager's roaming handler.
	sn.ag.AttachClient(ev.Client, cn.mac, cn.ip, port)
	// Gratuitous ARP, as 802.11 roaming emits: it floods up the backhaul
	// and re-points every learning switch at the client's new location.
	cn.host.SendARPRequest(cn.ip)
}

// AttachChain associates an NF chain with a client via the Manager API.
func (s *System) AttachChain(client topology.ClientID, spec manager.ChainSpec) error {
	return s.Manager.AttachChain(string(client), spec)
}

// KillStation simulates a station crash: the agent's manager connection
// drops (with failover armed, the Manager re-places its chains). The
// station's dataplane keeps whatever state it had — exactly what a
// management-plane loss looks like from the controller.
func (s *System) KillStation(id topology.StationID) error {
	s.mu.Lock()
	sn, ok := s.stations[id]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", manager.ErrUnknownStation, id)
	}
	sn.link.Close()
	return nil
}

// RestartStation reconnects a killed station's agent to the manager.
func (s *System) RestartStation(id topology.StationID) error {
	s.mu.Lock()
	sn, ok := s.stations[id]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", manager.ErrUnknownStation, id)
	}
	link, err := agent.Connect(sn.ag, s.Manager.Addr(), s.cfg.ReportInterval)
	if err != nil {
		return err
	}
	s.mu.Lock()
	sn.link = link
	s.mu.Unlock()
	return nil
}

// WaitClientAt blocks until the manager sees the client on the station and
// all in-flight migrations settle, or the timeout elapses. Tests and
// benches use it to synchronise with the asynchronous roaming pipeline.
func (s *System) WaitClientAt(client topology.ClientID, station topology.StationID, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if st, ok := s.Manager.ClientStation(string(client)); ok && st == string(station) {
			s.Manager.WaitIdle()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: client %s at %s", ErrTimeout, client, station)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// WaitChainOn blocks until the station's agent lists the named chain
// (Agent.Chains), or the timeout elapses. Listed is not serving: a
// migration target deployed disabled satisfies it too. Callers that need
// the chain forwarding wait for the move to settle with WaitClientAt (which
// ends in Manager.WaitIdle) or ask Agent.ChainEnabled.
func (s *System) WaitChainOn(station topology.StationID, chain string, timeout time.Duration) error {
	ag := s.Agent(station)
	if ag == nil {
		return fmt.Errorf("%w: station %s", manager.ErrUnknownStation, station)
	}
	deadline := time.Now().Add(timeout)
	for {
		for _, name := range ag.Chains() {
			if name == chain {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: chain %s on %s", ErrTimeout, chain, station)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Close tears the deployment down: agents disconnect, manager stops.
func (s *System) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	stations := make([]*stationNode, 0, len(s.stations))
	for _, sn := range s.stations {
		stations = append(stations, sn)
	}
	clients := make([]*clientNode, 0, len(s.clients))
	for _, cn := range s.clients {
		clients = append(clients, cn)
	}
	s.mu.Unlock()
	for _, cn := range clients {
		cn.mu.Lock()
		if cn.swSide != nil {
			cn.swSide.Close()
		}
		cn.mu.Unlock()
	}
	for _, sn := range stations {
		sn.link.Close()
		sn.uplink.Close()
	}
	s.closeTunnels()
	s.Manager.Close()
}
