package agent_test

import (
	"testing"
	"time"

	"gnf/internal/agent"
	"gnf/internal/packet"
	"gnf/internal/wire"
)

// linked connects the station's agent to a fake manager and returns the
// manager's end of the connection.
func linked(t *testing.T, st *station) *wire.Peer {
	t.Helper()
	fm := newFakeManager(t)
	link, err := agent.Connect(st.ag, fm.srv.Addr(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(link.Close)
	waitCount(t, time.Second, fm.peerReady)
	return fm.peer
}

// natPorts records the translated source port of every datagram the
// station's server receives.
func natPorts(st *station) <-chan uint16 {
	ports := make(chan uint16, 8)
	st.server.HandleAnyUDP(func(src, _ packet.Endpoint, _ []byte) []byte {
		ports <- src.Port
		return nil
	})
	return ports
}

func nextPort(t *testing.T, ports <-chan uint16) uint16 {
	t.Helper()
	select {
	case p := <-ports:
		return p
	case <-time.After(2 * time.Second):
		t.Fatal("no datagram reached the server")
		return 0
	}
}

// parkOne deploys the NAT chain disabled, as a move's target, and parks one
// datagram of the client's flow from port 7001 in its brownout buffer.
func parkOne(t *testing.T, st *station) {
	t.Helper()
	spec := natSpec("nat-ch")
	spec.Enabled = false
	if _, err := st.ag.Deploy(spec); err != nil {
		t.Fatal(err)
	}
	st.client.SendUDP(packet.Endpoint{Addr: serverIP, Port: 53}, 7001, []byte("q"))
	waitCount(t, 2*time.Second, func() bool { return st.ag.Switch().Stats().Redirects == 1 })
}

// TestEnableImportsBeforeItReplays drives a move's two freeze-window RPCs
// over the wire. The source's freezing Checkpoint stops its chain, then
// exports; the target's Enable imports that export, then replays what it
// parked: the parked datagram leaves with the port the source's NAT gave
// its flow, not the one a fresh NAT would. An Enable without a raw section
// imports nothing.
func TestEnableImportsBeforeItReplays(t *testing.T) {
	src := newStation(t)
	srcPeer := linked(t, src)
	if _, err := src.ag.Deploy(natSpec("nat-ch")); err != nil {
		t.Fatal(err)
	}
	srcPorts := natPorts(src)
	var moved uint16 // the source's port for the flow from 7001, its second
	for _, port := range []uint16{7000, 7001} {
		src.client.SendUDP(packet.Endpoint{Addr: serverIP, Port: 53}, port, []byte("q"))
		moved = nextPort(t, srcPorts)
	}

	var residual agent.CheckpointResult
	if err := srcPeer.Call(agent.MethodCheckpoint,
		agent.CheckpointSpec{Chain: "nat-ch", Restart: true, Freeze: true, Brownout: true}, &residual); err != nil {
		t.Fatal(err)
	}
	if on, err := src.ag.ChainEnabled("nat-ch"); err != nil || on {
		t.Fatalf("source after its freezing checkpoint: enabled=%v err=%v, want frozen", on, err)
	}

	dst := newStation(t)
	dstPeer := linked(t, dst)
	dstPorts := natPorts(dst)
	parkOne(t, dst)
	var on agent.EnableResult
	if err := dstPeer.Call(agent.MethodEnable, agent.RestoreSpec{Chain: "nat-ch", State: residual.State}, &on); err != nil {
		t.Fatal(err)
	}
	if on.Replayed != 1 {
		t.Fatalf("replayed %d frames, want the one parked", on.Replayed)
	}
	if got := nextPort(t, dstPorts); got != moved {
		t.Errorf("the parked datagram left on port %d, want %d, the source's: the replay ran before the import", got, moved)
	}
	if ch, _ := dst.ag.ChainFunction("nat-ch"); ch.NFStats()["nat0.mappings"] != 2 {
		t.Errorf("target NAT stats %v, want the source's two mappings", ch.NFStats())
	}

	bare := newStation(t)
	barePeer := linked(t, bare)
	barePorts := natPorts(bare)
	parkOne(t, bare)
	if err := barePeer.Call(agent.MethodEnable, agent.ChainRef{Chain: "nat-ch"}, &on); err != nil {
		t.Fatal(err)
	}
	if got := nextPort(t, barePorts); got == moved {
		t.Errorf("an Enable without state left on the source's port %d", got)
	}
	if ch, _ := bare.ag.ChainFunction("nat-ch"); ch.NFStats()["nat0.mappings"] != 1 {
		t.Errorf("NAT stats %v after an Enable without state, want the replayed flow's mapping alone", ch.NFStats())
	}
}

// TestEveryExportHoldsTheMemberCount pins what lets Enable tell "no state
// rides" from an export: every export — a session's first or a later delta
// that found nothing dirty, of an empty chain or a pool attachment — is at
// least the chain framing's 4-byte member count.
func TestEveryExportHoldsTheMemberCount(t *testing.T) {
	st := newStation(t)
	empty := agent.DeploySpec{Chain: "empty", Client: "phone", Enabled: true}
	for _, spec := range []agent.DeploySpec{empty, sharedSpec("pooled", "phone"), natSpec("nat-ch")} {
		if _, err := st.ag.Deploy(spec); err != nil {
			t.Fatal(err)
		}
		for _, restart := range []bool{true, false} {
			res, err := st.ag.PreCopy(spec.Chain, restart)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.State) < 4 {
				t.Errorf("%s export (restart=%v) is %d bytes, want at least the member count's 4", spec.Chain, restart, len(res.State))
			}
		}
	}
}
