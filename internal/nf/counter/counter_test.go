package counter

import (
	"errors"
	"testing"
	"time"

	"gnf/internal/clock"
	"gnf/internal/nf"
	"gnf/internal/packet"
)

var (
	macA = packet.MAC{2, 0, 0, 0, 0, 1}
	macB = packet.MAC{2, 0, 0, 0, 0, 2}
	ipA  = packet.IP{10, 0, 0, 1}
	ipB  = packet.IP{10, 0, 0, 2}
)

func udpFrame(payload string) []byte {
	return packet.BuildUDP(macA, macB, ipA, ipB, 1111, 2222, []byte(payload))
}

func flow() packet.FiveTuple {
	return packet.FiveTuple{
		Proto: packet.ProtoUDP,
		Src:   packet.Endpoint{Addr: ipA, Port: 1111},
		Dst:   packet.Endpoint{Addr: ipB, Port: 2222},
	}
}

func TestPerFlowAccounting(t *testing.T) {
	m := New("mon", 0)
	frame := udpFrame("data")
	for i := 0; i < 5; i++ {
		if len(m.Process(nf.Outbound, frame).Forward) != 1 {
			t.Fatal("monitor dropped traffic")
		}
	}
	// The reverse direction lands on the same canonical flow.
	rev := packet.BuildUDP(macB, macA, ipB, ipA, 2222, 1111, []byte("ack"))
	m.Process(nf.Inbound, rev)
	fs, ok := m.Flow(flow())
	if !ok || fs.Packets != 6 {
		t.Fatalf("flow stats = %+v, %v", fs, ok)
	}
	if m.Flows() != 1 {
		t.Fatalf("flows = %d", m.Flows())
	}
	if fs.Bytes == 0 {
		t.Fatal("bytes not accounted")
	}
}

func TestPPSAlert(t *testing.T) {
	m := New("mon", 10)
	clk := clock.NewVirtual()
	m.SetClock(clk)
	var alerts []nf.Notification
	m.SetNotifier(func(n nf.Notification) { alerts = append(alerts, n) })
	frame := udpFrame("x")
	for i := 0; i < 15; i++ {
		m.Process(nf.Outbound, frame)
	}
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d, want exactly 1 (deduplicated)", len(alerts))
	}
	if alerts[0].Severity != nf.SevCritical {
		t.Fatalf("severity = %v", alerts[0].Severity)
	}
	// New window: counter resets, another burst re-alerts.
	clk.Advance(2 * time.Second)
	for i := 0; i < 15; i++ {
		m.Process(nf.Outbound, frame)
	}
	if len(alerts) != 2 {
		t.Fatalf("alerts after window reset = %d", len(alerts))
	}
	if m.NFStats()["pps_alerts"] != 2 {
		t.Fatalf("stats = %v", m.NFStats())
	}
}

func TestNoAlertUnderThreshold(t *testing.T) {
	m := New("mon", 100)
	m.SetClock(clock.NewVirtual())
	fired := false
	m.SetNotifier(func(nf.Notification) { fired = true })
	for i := 0; i < 50; i++ {
		m.Process(nf.Outbound, udpFrame("x"))
	}
	if fired {
		t.Fatal("alert under threshold")
	}
}

func TestSignatureDetection(t *testing.T) {
	m := New("mon", 0, "exploit-kit", "beacon")
	var alerts []nf.Notification
	m.SetNotifier(func(n nf.Notification) { alerts = append(alerts, n) })
	m.Process(nf.Outbound, udpFrame("innocuous payload"))
	m.Process(nf.Outbound, udpFrame("contains exploit-kit marker"))
	m.Process(nf.Outbound, udpFrame("beacon home"))
	if len(alerts) != 2 {
		t.Fatalf("alerts = %d", len(alerts))
	}
	if alerts[0].Severity != nf.SevWarning {
		t.Fatalf("severity = %v", alerts[0].Severity)
	}
	if m.NFStats()["signature_hits"] != 2 {
		t.Fatalf("stats = %v", m.NFStats())
	}
}

func TestNonIPForwarded(t *testing.T) {
	m := New("mon", 0)
	arp := packet.BuildARP(packet.ARPRequest, macA, ipA, packet.MAC{}, ipB)
	if len(m.Process(nf.Outbound, arp).Forward) != 1 {
		t.Fatal("ARP dropped")
	}
	if m.Flows() != 0 {
		t.Fatal("ARP tracked as flow")
	}
}

func TestStateMigrationRestoresCounters(t *testing.T) {
	m1 := New("mon", 0)
	for i := 0; i < 7; i++ {
		m1.Process(nf.Outbound, udpFrame("x"))
	}
	data, _, err := m1.ExportDelta(0)
	if err != nil {
		t.Fatal(err)
	}
	m2 := New("mon", 0)
	if err := m2.ImportDelta(data); err != nil {
		t.Fatal(err)
	}
	fs, ok := m2.Flow(flow())
	if !ok || fs.Packets != 7 {
		t.Fatalf("migrated flow = %+v, %v", fs, ok)
	}
	// The window start crosses as Unix nanoseconds: the same instant, not
	// the same Time value (no monotonic reading, another location).
	if orig, _ := m1.Flow(flow()); !fs.WindowStart.Equal(orig.WindowStart) {
		t.Fatalf("window start %v migrated as %v", orig.WindowStart, fs.WindowStart)
	}
	// Continued traffic accumulates on top of migrated counters.
	m2.Process(nf.Outbound, udpFrame("x"))
	fs, _ = m2.Flow(flow())
	if fs.Packets != 8 {
		t.Fatalf("post-migration packets = %d", fs.Packets)
	}
	if m2.NFStats()["total_frames"] != 7 { // total restored; +1 counted locally
		// total is 7 imported + 1 new = 8
		if m2.NFStats()["total_frames"] != 8 {
			t.Fatalf("total = %v", m2.NFStats())
		}
	}
	if err := m2.ImportDelta(data[:len(data)-1]); !errors.Is(err, nf.ErrBadRecord) {
		t.Fatalf("truncated record: %v", err)
	}
}

func TestFactory(t *testing.T) {
	fn, err := nf.Default.New("counter", "c0", nf.Params{"alert_pps": "100", "signatures": "a,b"})
	if err != nil {
		t.Fatalf("factory: %v", err)
	}
	if fn.Kind() != "counter" {
		t.Fatal("kind")
	}
	if _, err := nf.Default.New("counter", "x", nf.Params{"alert_pps": "NaN"}); err == nil {
		t.Fatal("bad alert_pps accepted")
	}
}
