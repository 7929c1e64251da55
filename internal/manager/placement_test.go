package manager_test

import (
	"testing"
	"time"

	"gnf/internal/agent"
	"gnf/internal/clock"
	"gnf/internal/manager"
	"gnf/internal/metrics"
	"gnf/internal/wire"
)

func TestStationInfosSnapshotsReports(t *testing.T) {
	mgr, err := manager.New(clock.System(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	dial := func(station string, cloud bool, cpu float64) *wire.Peer {
		peer, err := wire.Dial(mgr.Addr())
		if err != nil {
			t.Fatal(err)
		}
		go peer.Run()
		t.Cleanup(func() { peer.Close() })
		spec := agent.RegisterSpec{Station: station, MemoryBytes: 1 << 30, Cloud: cloud}
		if err := peer.Call(agent.MethodRegister, spec, nil); err != nil {
			t.Fatal(err)
		}
		peer.Notify(agent.MethodReport, agent.Report{
			Station: station,
			Usage:   metrics.ResourceUsage{CPUPercent: cpu, MemoryBytes: 512},
		})
		return peer
	}
	dial("st-a", false, 30)
	dial("nimbus", true, 2)

	waitFor(t, 2*time.Second, func() bool {
		inf := mgr.StationInfos()
		if len(inf) != 2 {
			return false
		}
		return !inf[0].Stale && !inf[1].Stale
	}, "both stations reported")

	inf := mgr.StationInfos()
	if inf[0].Station != "nimbus" || !inf[0].Cloud || inf[0].CPUPercent != 2 {
		t.Fatalf("info[0] = %+v", inf[0])
	}
	if inf[1].Station != "st-a" || inf[1].Cloud || inf[1].MemUsed != 512 || inf[1].Capacity != 1<<30 {
		t.Fatalf("info[1] = %+v", inf[1])
	}
	if got := mgr.StationInfos("nimbus"); len(got) != 1 || got[0].Station != "st-a" {
		t.Fatalf("exclusion failed: %+v", got)
	}
}
