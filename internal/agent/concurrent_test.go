package agent_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"gnf/internal/agent"
	"gnf/internal/clock"
	"gnf/internal/container"
	"gnf/internal/netem"
	"gnf/internal/nf"
	"gnf/internal/packet"
)

// Wall-clock container costs for the concurrency tests: large enough that
// "one boot" and "one boot per member" are told apart with a 2x margin on
// a busy two-core box, small enough to keep the package fast.
var (
	wallCosts = container.CostModel{Create: time.Millisecond, Start: 40 * time.Millisecond, Stop: 25 * time.Millisecond}
	wallBoot  = wallCosts.Create + wallCosts.Start
)

// newWallStation is a station whose container costs are real sleeps. It has
// an uplink and no client: these tests are about container lifecycle, and a
// chain deploys fine (without steering) for a client that is not there.
func newWallStation(t *testing.T, opts ...container.RuntimeOption) *agent.Agent {
	t.Helper()
	clk := clock.System()
	repo := container.NewRepository(clk, 0, 0)
	pushImages(repo)
	rt := container.NewRuntime("st-w", clk, repo, append([]container.RuntimeOption{container.WithCosts(wallCosts)}, opts...)...)
	sw := netem.NewSwitch("st-w")
	up, _ := netem.NewVethPair("up", "core")
	sw.Attach(0, up)
	t.Cleanup(func() { up.Close() })
	return agent.New("st-w", clk, rt, sw, 0)
}

// exclusiveSpec is a chain that cannot be pooled (nat is stateful), n
// members long, the nat at index at.
func exclusiveSpec(chain string, n, at int) agent.DeploySpec {
	spec := agent.DeploySpec{Chain: chain, Client: "phone", Enabled: true}
	for i := 0; i < n; i++ {
		fs := agent.NFSpec{Kind: "counter", Name: fmt.Sprintf("acct%d", i)}
		if i == at {
			fs = agent.NFSpec{Kind: "nat", Name: "xlate",
				Params: nf.Params{"nat_ip": "192.168.50.1", "ports": "40000-41000"}}
		}
		spec.Functions = append(spec.Functions, fs)
	}
	return spec
}

func TestChainBootsAndStopsItsMembersConcurrently(t *testing.T) {
	ag := newWallStation(t)
	spec := exclusiveSpec("ch", 4, 1)

	began := time.Now()
	res, err := ag.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(began); took >= 2*wallBoot {
		t.Fatalf("4-NF deploy took %v: want under two boots (%v), serial is %v", took, 2*wallBoot, 4*wallBoot)
	}
	want := []string{"ch-0-counter", "ch-1-nat", "ch-2-counter", "ch-3-counter"}
	if !slices.Equal(res.Containers, want) {
		t.Fatalf("DeployResult.Containers = %v, want chain order %v", res.Containers, want)
	}
	for _, c := range ag.Runtime().List() {
		if c.State() != container.StateRunning {
			t.Fatalf("%s is %s after Deploy", c.Name(), c.State())
		}
	}

	began = time.Now()
	if err := ag.Remove("ch"); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(began); took >= 2*wallCosts.Stop {
		t.Fatalf("4-NF remove took %v: want under two stops (%v), serial is %v", took, 2*wallCosts.Stop, 4*wallCosts.Stop)
	}
	assertStationEmpty(t, ag)
}

// The chain's state handler rides container 0 whichever member finishes
// booting first: the nat sits at index 1, and its table still moves through
// Checkpoint/Restore.
func TestCheckpointRidesFirstContainerAfterConcurrentBoot(t *testing.T) {
	src, dst := newStation(t), newStation(t)
	spec := exclusiveSpec("ch", 3, 1)
	if _, err := src.ag.Deploy(spec); err != nil {
		t.Fatal(err)
	}
	src.client.SendUDP(packet.Endpoint{Addr: serverIP, Port: 53}, 7000, []byte("q"))
	waitCount(t, 2*time.Second, func() bool {
		ch, _ := src.ag.ChainFunction("ch")
		return ch.NFStats()["xlate.mappings"] == 1
	})
	state, err := src.ag.Checkpoint("ch")
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if _, err := dst.ag.Deploy(spec); err != nil {
		t.Fatal(err)
	}
	if err := dst.ag.Restore("ch", state); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	ch, _ := dst.ag.ChainFunction("ch")
	if ch.NFStats()["xlate.mappings"] != 1 {
		t.Fatalf("restored stats = %v", ch.NFStats())
	}
}

// A member that fails to boot takes the whole chain down with it: every
// boot is joined first, so nothing is left running, reserved or attached,
// and the name is free at once.
func TestFailedMemberBootLeavesNothingBehind(t *testing.T) {
	const imageMem = 6 << 20 // pushImages
	rows := []struct {
		name string
		opts []container.RuntimeOption
		// arm plants the fault; the func it returns clears it.
		arm  func(t *testing.T, ag *agent.Agent, spec *agent.DeploySpec) (clear func())
		want error
	}{
		{
			name: "unknown image on member 1",
			arm: func(t *testing.T, ag *agent.Agent, spec *agent.DeploySpec) func() {
				// httpcache is a registered kind, so the chain assembles;
				// the repository just does not carry its image.
				good := spec.Functions[1]
				spec.Functions[1] = agent.NFSpec{Kind: "httpcache", Name: "cache"}
				return func() { spec.Functions[1] = good }
			},
			want: container.ErrImageUnknown,
		},
		{
			name: "capacity for 2 of 3 members",
			opts: []container.RuntimeOption{container.WithCapacity(2*imageMem + imageMem/2)},
			arm: func(t *testing.T, ag *agent.Agent, spec *agent.DeploySpec) func() {
				return func() { spec.Functions = spec.Functions[:2] } // a chain that fits
			},
			want: container.ErrCapacity,
		},
		{
			name: "duplicate container name on member 2",
			arm: func(t *testing.T, ag *agent.Agent, spec *agent.DeploySpec) func() {
				squatter, err := ag.Runtime().Create(container.Config{
					Name: "ch-2-counter", Image: agent.ImageForKind("counter")})
				if err != nil {
					t.Fatal(err)
				}
				return func() {
					if err := squatter.Remove(); err != nil {
						t.Fatal(err)
					}
				}
			},
			want: container.ErrNameInUse,
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			ag := newWallStation(t, row.opts...)
			spec := exclusiveSpec("ch", 3, 0)
			clear := row.arm(t, ag, &spec)
			if _, err := ag.Deploy(spec); !errors.Is(err, row.want) {
				t.Fatalf("Deploy: %v, want %v", err, row.want)
			}
			clear()
			assertStationEmpty(t, ag)
			if _, err := ag.Deploy(spec); err != nil {
				t.Fatalf("redeploy right after the failure: %v", err)
			}
		})
	}
}

// assertStationEmpty checks that no container exists or holds memory, no
// chain is listed and only the uplink is attached to the switch.
func assertStationEmpty(t *testing.T, ag *agent.Agent) {
	t.Helper()
	for _, c := range ag.Runtime().List() {
		t.Errorf("container %s left behind (%s)", c.Name(), c.State())
	}
	if mem := ag.Runtime().MemoryInUse(); mem != 0 {
		t.Errorf("%d B of container memory still reserved", mem)
	}
	if chains := ag.Chains(); len(chains) != 0 {
		t.Errorf("chains still listed: %v", chains)
	}
	if st := ag.Switch().Stats(); st.Ports != 1 || st.Rules != 0 {
		t.Errorf("switch has %d ports and %d rules, want the uplink only", st.Ports, st.Rules)
	}
}

// Scale-out boots the missing replicas side by side and, when one of them
// fails, still publishes the ones that came up.
func TestScalePoolBootsReplicasConcurrently(t *testing.T) {
	ag := newWallStation(t)
	res, err := ag.Deploy(sharedSpec("fw-phone", "phone"))
	if err != nil {
		t.Fatal(err)
	}
	pool := ag.PoolStats()[0]
	scale := func(n int) error { return ag.ScalePool(pool.Kinds, pool.ConfigHash, n) }
	replicas := func() int { return ag.PoolStats()[0].Replicas }

	began := time.Now()
	if err := scale(3); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(began); took >= 2*wallBoot {
		t.Fatalf("adding 2 two-container replicas took %v: want under two boots (%v)", took, 2*wallBoot)
	}
	if replicas() != 3 {
		t.Fatalf("replicas = %d, want 3", replicas())
	}

	// Replicas r3 and r4 are next; squat on a container name of r4.
	if _, err := ag.Runtime().Create(container.Config{
		Name:  strings.Replace(res.Containers[0], "-r0-", "-r4-", 1),
		Image: agent.ImageForKind("firewall"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := scale(5); !errors.Is(err, container.ErrNameInUse) {
		t.Fatalf("scale-out with one replica blocked: %v", err)
	}
	if replicas() != 4 {
		t.Fatalf("replicas = %d after the partial failure, want 4 (r3 came up)", replicas())
	}
	if got, want := len(ag.Runtime().List()), 4*2+1; got != want {
		t.Fatalf("%d containers after the partial failure, want %d", got, want)
	}
}
