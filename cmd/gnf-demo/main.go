// Command gnf-demo stages the paper's §4 mobility use-case end to end: a
// two-station edge, a smartphone client with a firewall+counter chain
// attached, CBR traffic flowing to a server, and scripted roaming between
// cells — while the UI dashboard shows stations, chains, and migrations as
// they happen.
//
//	gnf-demo -ui 127.0.0.1:8080 -roams 3 -dwell 3s
//
// With -scenario, the staged demo is replaced by a declarative scenario
// file executed on the virtual clock (see scenarios/ for the corpus):
//
//	gnf-demo -scenario scenarios/roaming.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"gnf/internal/agent"
	"gnf/internal/core"
	"gnf/internal/manager"
	"gnf/internal/nf"
	"gnf/internal/packet"
	"gnf/internal/scenario"
	"gnf/internal/topology"
	"gnf/internal/traffic"
	"gnf/internal/ui"
)

func main() {
	uiAddr := flag.String("ui", "127.0.0.1:8080", "dashboard address")
	roams := flag.Int("roams", 3, "number of handoffs to perform")
	dwell := flag.Duration("dwell", 3*time.Second, "time spent in each cell")
	pps := flag.Int("pps", 100, "client traffic rate (packets/s)")
	strategy := flag.String("strategy", "stateful", "migration strategy: cold|stateful|live")
	scenarioFile := flag.String("scenario", "", "run this scenario file instead of the staged demo")
	flag.Parse()

	if *scenarioFile != "" {
		if err := scenario.Execute(*scenarioFile, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}

	strat := manager.StrategyStateful
	switch *strategy {
	case "cold":
		strat = manager.StrategyCold
	case "live":
		strat = manager.StrategyLive
	case "stateful":
	default:
		log.Fatalf("unknown -strategy %q (want cold, stateful or live)", *strategy)
	}
	sys, err := core.NewSystem(core.Config{
		Strategy:       strat,
		ReportInterval: 500 * time.Millisecond,
		Stations: []core.StationConfig{
			{ID: "st-a", Cells: []core.CellConfig{{ID: "cell-a", Center: topology.Point{X: 0}, Radius: 60}}},
			{ID: "st-b", Cells: []core.CellConfig{{ID: "cell-b", Center: topology.Point{X: 100}, Radius: 60}}},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	dash := ui.New(sys.Manager)
	if err := dash.Start(*uiAddr); err != nil {
		log.Fatal(err)
	}
	defer dash.Close()
	log.Printf("dashboard: http://%s/", dash.Addr())

	phoneMAC := packet.MAC{2, 0, 0, 0, 0, 0x10}
	phoneIP := packet.IP{10, 0, 0, 10}
	serverMAC := packet.MAC{2, 0, 0, 0, 0, 0x99}
	serverIP := packet.IP{10, 99, 0, 1}

	if err := sys.AddClient("phone", phoneMAC, phoneIP); err != nil {
		log.Fatal(err)
	}
	server := sys.AddServer("web", serverMAC, serverIP)
	server.Learn(phoneIP, phoneMAC)
	sink := traffic.NewSink(server, 7000, sys.Clock)

	if err := sys.Topo.Attach("phone", "cell-a"); err != nil {
		log.Fatal(err)
	}
	if err := sys.WaitClientAt("phone", "st-a", 5*time.Second); err != nil {
		log.Fatal(err)
	}
	sys.ClientHost("phone").Learn(serverIP, serverMAC)

	spec := manager.ChainSpec{
		Name: "edge-chain",
		Functions: []agent.NFSpec{
			{Kind: "firewall", Name: "fw", Params: nf.Params{"policy": "accept", "rules": "drop out tcp any any any 23"}},
			{Kind: "counter", Name: "acct", Params: nf.Params{}},
		},
	}
	if err := sys.AttachChain("phone", spec); err != nil {
		log.Fatal(err)
	}
	if err := sys.WaitChainOn("st-a", "edge-chain", 5*time.Second); err != nil {
		log.Fatal(err)
	}
	log.Printf("chain %q attached on st-a (firewall + counter)", spec.Name)

	// Background CBR traffic for the whole demo.
	total := (*roams + 1) * int(dwell.Seconds()) * *pps
	go traffic.CBR(sys.ClientHost("phone"), packet.Endpoint{Addr: serverIP, Port: 7000}, 6000, total, 128, *pps)

	cells := []topology.CellID{"cell-b", "cell-a"}
	stations := []topology.StationID{"st-b", "st-a"}
	for i := 0; i < *roams; i++ {
		time.Sleep(*dwell)
		target := cells[i%2]
		log.Printf("roaming phone -> %s", target)
		if err := sys.Topo.Attach("phone", target); err != nil {
			log.Fatal(err)
		}
		if err := sys.WaitClientAt("phone", stations[i%2], 5*time.Second); err != nil {
			log.Fatal(err)
		}
		if err := sys.WaitChainOn(stations[i%2], "edge-chain", 5*time.Second); err != nil {
			log.Fatal(err)
		}
		migs := sys.Manager.Migrations()
		m := migs[len(migs)-1]
		log.Printf("  migrated %s -> %s (%s): downtime=%v state=%dB",
			m.From, m.To, m.Strategy, m.Downtime, m.StateBytes)
	}
	time.Sleep(*dwell)

	rep := sink.Analyze(total)
	fmt.Printf("\n=== demo summary ===\n")
	fmt.Printf("traffic: sent=%d received=%d lost=%d longest-gap=%d pkts (%v)\n",
		rep.Sent, rep.Received, rep.Lost, rep.LongestGap, rep.GapDuration)
	for _, m := range sys.Manager.Migrations() {
		fmt.Printf("migration: %s->%s strategy=%s downtime=%v total=%v state=%dB\n",
			m.From, m.To, m.Strategy, m.Downtime, m.Total, m.StateBytes)
	}
}
