package agent_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"gnf/internal/agent"
	"gnf/internal/clock"
	"gnf/internal/container"
	"gnf/internal/netem"
	"gnf/internal/nf"
	"gnf/internal/packet"
	"gnf/internal/topology"
)

// sharedSpec is a shareable chain spec (all member kinds stateless) for
// client, with a per-client chain name and identical configuration.
func sharedSpec(chain, client string) agent.DeploySpec {
	return agent.DeploySpec{
		Chain:  chain,
		Client: client,
		Functions: []agent.NFSpec{
			{Kind: "firewall", Name: "fw", Params: nf.Params{"policy": "accept"}},
			{Kind: "counter", Name: "acct"},
		},
		Enabled: true,
	}
}

// attachExtraClient wires another client host into the station switch.
func attachExtraClient(t *testing.T, st *station, id string, idx int) *netem.Host {
	t.Helper()
	mac := packet.MAC{2, 0, 0, 9, byte(idx >> 8), byte(idx)}
	ip := packet.IP{10, 0, 1, byte(idx)}
	cl, clSw := netem.NewVethPair(id+"-wl", id+"-ap")
	port := netem.PortID(10 + idx)
	st.ag.Switch().Attach(port, clSw)
	host := netem.NewHost(mac, ip, cl)
	host.Learn(serverIP, serverMAC)
	st.ag.AttachClient(topology.ClientID(id), mac, ip, port)
	t.Cleanup(func() { cl.Close() })
	return host
}

func TestSharedDeployDeduplicatesInstances(t *testing.T) {
	st := newStation(t)
	attachExtraClient(t, st, "c2", 2)
	attachExtraClient(t, st, "c3", 3)

	r1, err := st.ag.Deploy(sharedSpec("fw-phone", "phone"))
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Shared {
		t.Fatal("shareable spec not pooled")
	}
	base := len(st.ag.Runtime().List())
	for i, client := range []string{"c2", "c3"} {
		res, err := st.ag.Deploy(sharedSpec(fmt.Sprintf("fw-c%d", i+2), client))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Shared {
			t.Fatal("expected pool attachment")
		}
		if res.AttachMillis != 0 {
			t.Fatalf("pool hit paid %dms attach latency", res.AttachMillis)
		}
	}
	if got := len(st.ag.Runtime().List()); got != base {
		t.Fatalf("containers grew from %d to %d on pool hits", base, got)
	}
	pools := st.ag.PoolStats()
	if len(pools) != 1 || pools[0].Refs != 3 || pools[0].Replicas != 1 {
		t.Fatalf("pools = %+v", pools)
	}
	if pools[0].Kinds != "firewall+counter" {
		t.Fatalf("kind signature = %q", pools[0].Kinds)
	}

	// A different configuration must get its own instance.
	other := sharedSpec("lim-phone2", "phone")
	other.Functions = []agent.NFSpec{{Kind: "ratelimit", Name: "pol", Params: nf.Params{"rate_bps": "1000000"}}}
	if _, err := st.ag.Deploy(other); err != nil {
		t.Fatal(err)
	}
	if pools := st.ag.PoolStats(); len(pools) != 2 {
		t.Fatalf("pools after distinct spec = %+v", pools)
	}
}

func TestSharedDensityHundredClients(t *testing.T) {
	st := newStation(t)
	const clients = 100
	for i := 0; i < clients; i++ {
		id := fmt.Sprintf("c%03d", i)
		attachExtraClient(t, st, id, i+2)
		if _, err := st.ag.Deploy(sharedSpec("fw-"+id, id)); err != nil {
			t.Fatalf("deploy %d: %v", i, err)
		}
	}
	// 100 clients, one shareable spec: O(replicas) instances, not 100.
	if got := len(st.ag.Runtime().List()); got != 2 {
		t.Fatalf("runtime hosts %d containers for %d clients (want 2: one per NF of one instance)", got, clients)
	}
	pools := st.ag.PoolStats()
	if len(pools) != 1 || pools[0].Refs != clients {
		t.Fatalf("pools = %+v", pools)
	}
	if got := len(st.ag.Chains()); got != clients {
		t.Fatalf("chains = %d", got)
	}
}

func TestSharedConcurrentDeployRemove(t *testing.T) {
	st := newStation(t)
	const workers = 16
	for i := 0; i < workers; i++ {
		attachExtraClient(t, st, fmt.Sprintf("w%d", i), i+2)
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := fmt.Sprintf("w%d", i)
			chain := "fw-" + client
			for j := 0; j < 20; j++ {
				if _, err := st.ag.Deploy(sharedSpec(chain, client)); err != nil {
					t.Errorf("deploy %s: %v", chain, err)
					return
				}
				if err := st.ag.Remove(chain); err != nil {
					t.Errorf("remove %s: %v", chain, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, ps := range st.ag.PoolStats() {
		if ps.Refs != 0 {
			t.Fatalf("leaked refs after churn: %+v", ps)
		}
	}
	st.clk.Advance(time.Minute)
	st.ag.ReapPools()
	if got := len(st.ag.Runtime().List()); got != 0 {
		t.Fatalf("%d containers survive reap after full churn", got)
	}
}

func TestSharedReapSparesReattached(t *testing.T) {
	st := newStation(t)
	if _, err := st.ag.Deploy(sharedSpec("fw-phone", "phone")); err != nil {
		t.Fatal(err)
	}
	if err := st.ag.Remove("fw-phone"); err != nil {
		t.Fatal(err)
	}
	// Grace fully lapses, then the chain is re-deployed before any reap
	// pass: the warm instance must be revived, not rebuilt or killed.
	st.clk.Advance(time.Minute)
	res, err := st.ag.Deploy(sharedSpec("fw-phone", "phone"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Shared || res.AttachMillis != 0 {
		t.Fatalf("reattach rebuilt the instance: %+v", res)
	}
	if n := st.ag.ReapPools(); n != 0 {
		t.Fatalf("reap killed %d just-reattached instance(s)", n)
	}
	if pools := st.ag.PoolStats(); len(pools) != 1 || pools[0].Refs != 1 {
		t.Fatalf("pools = %+v", pools)
	}
	if enabled, err := st.ag.ChainEnabled("fw-phone"); err != nil || !enabled {
		t.Fatalf("reattached chain enabled = %v, %v", enabled, err)
	}
}

func TestScalePoolSpreadsTrafficAndDrains(t *testing.T) {
	st := newStation(t)
	if _, err := st.ag.Deploy(sharedSpec("fw-phone", "phone")); err != nil {
		t.Fatal(err)
	}
	pools := st.ag.PoolStats()
	if len(pools) != 1 {
		t.Fatalf("pools = %+v", pools)
	}
	kinds, hash := pools[0].Kinds, pools[0].ConfigHash

	if err := st.ag.ScalePool(kinds, hash, 3); err != nil {
		t.Fatal(err)
	}
	if ps := st.ag.PoolStats(); ps[0].Replicas != 3 {
		t.Fatalf("replicas = %d after scale-out", ps[0].Replicas)
	}

	got := make(chan struct{}, 1024)
	st.server.HandleAnyUDP(func(src, dst packet.Endpoint, payload []byte) []byte {
		got <- struct{}{}
		return nil
	})
	const flows, per = 64, 4
	for f := 0; f < flows; f++ {
		for n := 0; n < per; n++ {
			st.client.SendUDP(packet.Endpoint{Addr: serverIP, Port: 80}, uint16(30000+f), []byte("x"))
		}
	}
	seen := 0
	waitCount(t, 5*time.Second, func() bool {
		for {
			select {
			case <-got:
				seen++
			default:
				return seen == flows*per
			}
		}
	})

	ps := st.ag.PoolStats()
	if ps[0].Processed < flows*per {
		t.Fatalf("processed = %d, want >= %d", ps[0].Processed, flows*per)
	}
	busy := 0
	for _, n := range ps[0].PerReplica {
		if n > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("flow hashing used %d of 3 replicas: %v", busy, ps[0].PerReplica)
	}

	// Scale back in: drained replicas' containers go away, traffic still flows.
	if err := st.ag.ScalePool(kinds, hash, 1); err != nil {
		t.Fatal(err)
	}
	if ps := st.ag.PoolStats(); ps[0].Replicas != 1 {
		t.Fatalf("replicas = %d after scale-in", ps[0].Replicas)
	}
	if got := len(st.ag.Runtime().List()); got != 2 {
		t.Fatalf("%d containers after scale-in, want 2", got)
	}
	st.client.SendUDP(packet.Endpoint{Addr: serverIP, Port: 80}, 31000, []byte("x"))
	waitCount(t, 5*time.Second, func() bool {
		select {
		case <-got:
			return true
		default:
			return false
		}
	})

	// Guard rails.
	if err := st.ag.ScalePool(kinds, hash, 0); !errors.Is(err, agent.ErrBadReplicas) {
		t.Fatalf("replicas=0: %v", err)
	}
	if err := st.ag.ScalePool("ghost", "nohash", 2); !errors.Is(err, agent.ErrUnknownPool) {
		t.Fatalf("unknown pool: %v", err)
	}
}

func TestSharedMigrationOneSharerLeaves(t *testing.T) {
	// Two sharers on one agent; one "migrates away" (the manager's
	// disable/checkpoint/remove source-side sequence). The instance must
	// keep serving the remaining sharer throughout.
	st := newStation(t)
	c2 := attachExtraClient(t, st, "c2", 2)
	if _, err := st.ag.Deploy(sharedSpec("fw-phone", "phone")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ag.Deploy(sharedSpec("fw-c2", "c2")); err != nil {
		t.Fatal(err)
	}

	if err := st.ag.Disable("fw-phone"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ag.Checkpoint("fw-phone"); err != nil {
		t.Fatal(err)
	}
	if err := st.ag.Remove("fw-phone"); err != nil {
		t.Fatal(err)
	}

	// The stayer's refcount keeps the instance alive with 2 containers.
	pools := st.ag.PoolStats()
	if len(pools) != 1 || pools[0].Refs != 1 {
		t.Fatalf("pools after sharer left = %+v", pools)
	}
	if got := len(st.ag.Runtime().List()); got != 2 {
		t.Fatalf("containers = %d", got)
	}

	// And it still forwards the stayer's traffic.
	got := make(chan struct{}, 16)
	st.server.HandleAnyUDP(func(src, dst packet.Endpoint, payload []byte) []byte {
		got <- struct{}{}
		return nil
	})
	c2.SendUDP(packet.Endpoint{Addr: serverIP, Port: 80}, 4000, []byte("x"))
	waitCount(t, 5*time.Second, func() bool {
		select {
		case <-got:
			return true
		default:
			return false
		}
	})

	// Restore into a shared instance with other sharers must be a no-op
	// (their state wins), not an error.
	if _, err := st.ag.Deploy(sharedSpec("fw-back", "phone")); err != nil {
		t.Fatal(err)
	}
	if err := st.ag.Restore("fw-back", []byte("bogus")); err != nil {
		t.Fatalf("restore into shared instance with sharers: %v", err)
	}
}

func TestDeployResolvesImageThroughRegistry(t *testing.T) {
	// Satellite fix: registered NF versions select the image tag instead of
	// the hardcoded "gnf/<kind>:1.0".
	clk := clock.NewAutoVirtual()
	repo := container.NewRepository(clk, 0, 0)
	repo.Push(container.Image{Name: "gnf/blessed:2.7", SizeBytes: 1 << 20, MemoryBytes: 1 << 20})
	rt := container.NewRuntime("st-x", clk, repo)
	sw := netem.NewSwitch("st-x")
	up, _ := netem.NewVethPair("up", "core")
	sw.Attach(0, up)

	reg := nf.NewRegistry()
	reg.RegisterKind("blessed", nf.KindInfo{Version: "2.7"},
		func(name string, params nf.Params) (nf.Function, error) {
			return passthroughFn{name: name}, nil
		})
	ag := agent.New("st-x", clk, rt, sw, 0, agent.WithRegistry(reg))
	res, err := ag.Deploy(agent.DeploySpec{
		Chain:     "ch",
		Client:    "ghost",
		Functions: []agent.NFSpec{{Kind: "blessed", Name: "b0"}},
		Enabled:   true,
	})
	if err != nil {
		t.Fatalf("deploy with versioned image: %v", err)
	}
	ctr, ok := rt.Get(res.Containers[0])
	if !ok {
		t.Fatal("container not found")
	}
	if got := ctr.Image().Name; got != "gnf/blessed:2.7" {
		t.Fatalf("image = %q, want gnf/blessed:2.7", got)
	}
}

type passthroughFn struct{ name string }

func (p passthroughFn) Name() string { return p.name }
func (p passthroughFn) Kind() string { return "blessed" }
func (p passthroughFn) Process(dir nf.Direction, frame []byte) nf.Output {
	return nf.ProcessOne(p, dir, frame)
}
func (p passthroughFn) ProcessBatch(_ nf.Direction, frames [][]byte, out *nf.Output) {
	out.Forward = append(out.Forward, frames...)
}
